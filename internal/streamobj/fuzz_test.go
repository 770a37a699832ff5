package streamobj

import (
	"bytes"
	"encoding/binary"
	"errors"
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

// referenceDecode is the full decode walkSlice replaced: it builds a
// header for every record of the slice. It accepts what the read path
// accepted before the walk, except a slice with bytes after its last
// record.
func referenceDecode(data []byte, base int64) ([]Record, error) {
	count, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, errors.New("truncated slice")
	}
	data = data[sz:]
	if count > uint64(len(data))/3+1 {
		return nil, errors.New("record count exceeds slice size")
	}
	var out []Record
	for i := uint64(0); i < count; i++ {
		kl, sz := binary.Uvarint(data)
		if sz <= 0 || uint64(len(data)-sz) < kl {
			return nil, errors.New("truncated key")
		}
		key := data[sz : sz+int(kl)]
		data = data[sz+int(kl):]
		vl, sz := binary.Uvarint(data)
		if sz <= 0 || uint64(len(data)-sz) < vl {
			return nil, errors.New("truncated value")
		}
		val := data[sz : sz+int(vl)]
		data = data[sz+int(vl):]
		ts, sz := binary.Varint(data)
		if sz <= 0 {
			return nil, errors.New("truncated timestamp")
		}
		data = data[sz:]
		out = append(out, Record{Key: key, Value: val, Offset: base + int64(i), Timestamp: time.Duration(ts)})
	}
	if len(data) > 0 {
		return nil, errors.New("trailing bytes")
	}
	return out, nil
}

// FuzzDecodeSlice hardens the in-place slice walk against the full
// decode. Arbitrary bytes never panic it. Started at any offset and
// stopped at any record limit, appending to a buffer that already holds
// a record, it accepts exactly the slices the full decode accepts and
// appends that decode's records from the start offset on, up to the
// limit; a rejected slice leaves the buffer at its incoming length with
// nothing behind it. An accepted slice survives a re-encode, and records
// carved out of the input round-trip through encodeSliceInto.
func FuzzDecodeSlice(f *testing.F) {
	valid := encodeSliceInto(nil, []Record{
		{Key: []byte("k1"), Value: []byte("v1"), Timestamp: 5 * time.Millisecond},
		{Key: nil, Value: []byte{}},
		{Key: bytes.Repeat([]byte("x"), 300), Value: bytes.Repeat([]byte("y"), 200), Timestamp: -time.Hour},
	})
	f.Add(valid, int64(42), uint16(0), uint16(3))
	f.Add(valid, int64(42), uint16(1), uint16(1))
	f.Add(valid, int64(0), uint16(2), uint16(0))
	f.Add(valid, int64(0), uint16(5), uint16(9))
	f.Add(append(valid[:len(valid):len(valid)], 0), int64(0), uint16(1), uint16(1)) // trailing byte
	f.Add(valid[:len(valid)-1], int64(0), uint16(0), uint16(1))
	f.Add(valid[:len(valid)/2], int64(7), uint16(1), uint16(1))
	f.Add(valid[:1], int64(-3), uint16(0), uint16(2))
	f.Add(encodeSliceInto(nil, nil), int64(1)<<61, uint16(0), uint16(1))
	f.Add([]byte{}, int64(0), uint16(0), uint16(1))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, int64(0), uint16(0), uint16(1)) // count = 2^64-1
	f.Fuzz(func(t *testing.T, data []byte, base int64, skip, limit uint16) {
		base %= 1 << 62 // offsets past base+skip stay clear of overflow
		want, werr := referenceDecode(data, base)
		kept := Record{Key: []byte("kept"), Offset: -1}
		got, err := walkSlice([]Record{kept}, data, base, base+int64(skip), 1+int(limit))
		if (err == nil) != (werr == nil) {
			t.Fatalf("walk error %v, full decode error %v", err, werr)
		}
		if len(got) == 0 || !bytes.Equal(got[0].Key, kept.Key) || got[0].Offset != -1 {
			t.Fatalf("the buffer's incoming record was lost: %+v", got)
		}
		if err != nil {
			if len(got) != 1 {
				t.Fatalf("a rejected slice left %d records behind", len(got)-1)
			}
			for i, r := range got[1:cap(got)] {
				if r.Key != nil || r.Value != nil {
					t.Fatalf("a rejected slice left a borrow at %d", i+1)
				}
			}
		} else {
			suffix := want[min(int(skip), len(want)):]
			suffix = suffix[:min(len(suffix), int(limit))]
			if !sameRecords(got[1:], suffix, base+int64(skip)) {
				t.Fatalf("from +%d limit %d: walk gave %d records, the full decode's suffix has %d", skip, limit, len(got)-1, len(suffix))
			}
			again, err := walkSlice(nil, encodeSliceInto(nil, want), base, base, len(want))
			if err != nil || !sameRecords(again, want, base) {
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
		carved, err := walkSlice(nil, encodeSliceInto(nil, recs), base, base, len(recs))
		if err != nil || !sameRecords(carved, recs, base) {
			t.Fatalf("%d records did not round-trip: %v", len(recs), err)
		}
	})
}
