package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// FuzzRestore hardens the checkpoint parser: whatever Restore accepts,
// Checkpoint writes back byte for byte, and every entry it carried is
// served by Get. testdata/fuzz/FuzzRestore keeps the first input that
// broke this — two keys out of order, accepted and then unfindable by
// the run's binary search.
func FuzzRestore(f *testing.F) {
	db := Open(Options{})
	for i := 0; i < 5; i++ {
		db.Put([]byte(fmt.Sprintf("k%d", i)), bytes.Repeat([]byte{'v'}, i))
	}
	valid := db.Checkpoint()
	f.Add(valid)
	f.Add([]byte("KVC1"))
	f.Add(valid[:len(valid)-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		db := Open(Options{})
		if err := db.Restore(data); err != nil {
			return
		}
		if got := db.Checkpoint(); !bytes.Equal(got, data) {
			t.Fatalf("restore/checkpoint round trip:\n in  %q\n out %q", data, got)
		}
		for rest := data[4:]; len(rest) > 0; {
			key, r := field(rest)
			val, r := field(r)
			rest = r
			if got, _, ok := db.Get(key); !ok || !bytes.Equal(got, val) {
				t.Fatalf("restored key %q: Get = %q, %v; want %q", key, got, ok, val)
			}
		}
	})
}

// field reads one length-prefixed field of an accepted checkpoint.
func field(b []byte) (f, rest []byte) {
	n, w := binary.Uvarint(b)
	return b[w : w+int(n)], b[w+int(n):]
}
