package streamobj

import (
	"bytes"
	"testing"
	"time"
)

// sameRecords reports whether got holds want's keys, values and
// timestamps at offsets base, base+1, ...
func sameRecords(got, want []Record, base int64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) ||
			got[i].Timestamp != want[i].Timestamp || got[i].Offset != base+int64(i) {
			return false
		}
	}
	return true
}

// FuzzDecodeSlice hardens the stored-slice decoder: arbitrary bytes
// never panic it and never make it allocate more record headers than
// the input could hold, whatever it accepts survives a re-encode, and
// records carved out of the input round-trip through encodeSlice.
func FuzzDecodeSlice(f *testing.F) {
	valid := encodeSlice([]Record{
		{Key: []byte("k1"), Value: []byte("v1"), Timestamp: 5 * time.Millisecond},
		{Key: nil, Value: []byte{}},
		{Key: bytes.Repeat([]byte("x"), 300), Value: bytes.Repeat([]byte("y"), 200), Timestamp: -time.Hour},
	})
	f.Add(valid, int64(42))
	f.Add(valid[:len(valid)-1], int64(0))
	f.Add(valid[:len(valid)/2], int64(7))
	f.Add(valid[:1], int64(-3))
	f.Add(encodeSlice(nil), int64(1)<<62)
	f.Add([]byte{}, int64(0))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, int64(0)) // count = 2^64-1
	f.Fuzz(func(t *testing.T, data []byte, base int64) {
		if recs, err := decodeSlice(data, base); err == nil {
			// A record is at least three bytes (two lengths and a
			// timestamp), so the headers are bounded by the input.
			if limit := len(data)/3 + 1; cap(recs) > limit {
				t.Fatalf("%d input bytes allocated %d record headers (limit %d)", len(data), cap(recs), limit)
			}
			again, err := decodeSlice(encodeSlice(recs), base)
			if err != nil || !sameRecords(again, recs, base) {
				t.Fatalf("accepted slice does not survive a re-encode: %v", err)
			}
		}
		// Carve records out of the input: each takes a key length, a
		// value length and a timestamp byte, then that many bytes.
		var recs []Record
		for rest := data; len(rest) >= 3; {
			kl, vl, ts := int(rest[0]), int(rest[1]), int8(rest[2])
			rest = rest[3:]
			kl = min(kl, len(rest))
			vl = min(vl, len(rest)-kl)
			recs = append(recs, Record{Key: rest[:kl], Value: rest[kl : kl+vl], Timestamp: time.Duration(ts) * time.Microsecond})
			rest = rest[kl+vl:]
		}
		got, err := decodeSlice(encodeSlice(recs), base)
		if err != nil || !sameRecords(got, recs, base) {
			t.Fatalf("%d records did not round-trip: %v", len(recs), err)
		}
	})
}
