package compress

import (
	"bytes"
	"testing"
)

// FuzzDecode hardens the two real codecs against arbitrary stored
// bytes: Decode never panics on input it did not produce, and
// Decode(Encode(x)) is x for every input.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("aaaaaaaaaaaaaaaabcabcabc"))
	f.Add(rleEncode(bytes.Repeat([]byte{0}, 300)))
	f.Add([]byte{128, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range []Codec{RLE, Flate} {
			Decode(c, data)
			enc, err := Encode(c, data)
			if err != nil {
				t.Fatalf("%v encode: %v", c, err)
			}
			dec, err := Decode(c, enc)
			if err != nil || !bytes.Equal(dec, data) {
				t.Fatalf("%v round trip of %q: %q, %v", c, data, dec, err)
			}
		}
	})
}
