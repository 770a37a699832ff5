package tableobj

import (
	"encoding/binary"
	"reflect"
	"testing"
	"time"

	"streamlake/internal/colfile"
)

// FuzzDecodeCommit hardens the commit-file parser.
func FuzzDecodeCommit(f *testing.F) {
	file := DataFile{
		Path: "p/f1", Partition: "x=1", Rows: 3, Bytes: 100,
		Min: []colfile.Value{colfile.IntValue(1)},
		Max: []colfile.Value{colfile.IntValue(9)},
	}
	valid, _ := EncodeCommit(Commit{ID: 1, Timestamp: time.Second, Ops: []FileOp{{Add: true, File: file}}})
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)/3])
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCommit(data)
		if err != nil {
			return
		}
		for _, op := range c.Ops {
			if len(op.File.Min) != len(op.File.Max) {
				t.Fatal("asymmetric stats decoded")
			}
		}
	})
}

// FuzzDecodeStats hardens the per-file stats decoder, legacy and v2, on
// its own: no input panics, and any DataFile it accepts survives
// encodeStats and decodeStats unchanged.
func FuzzDecodeStats(f *testing.F) {
	b := NewBloom(8)
	b.Add(colfile.StringValue("x"))
	iv := colfile.IntValue
	for _, df := range []DataFile{
		{},
		{Min: []colfile.Value{iv(1), colfile.StringValue("a")}, Max: []colfile.Value{iv(9), colfile.StringValue("z")}},
		{Min: []colfile.Value{iv(1)}, Max: []colfile.Value{iv(9)},
			Zones: []ZoneMap{{Min: []colfile.Value{iv(1)}, Max: []colfile.Value{iv(4)}}, {}}, Blooms: []*Bloom{b, nil}},
	} {
		f.Add(encodeStats(df))
	}
	// v2 stats of 255 columns, no zones, no blooms: the count's first
	// byte, 0xFF, is the v2 marker, so these must not re-encode as legacy.
	wide := binary.AppendUvarint([]byte{statsV2Marker}, 255)
	for i := 0; i < 255; i++ {
		wide = colfile.AppendValue(colfile.AppendValue(wide, iv(int64(i))), iv(int64(i)))
	}
	f.Add(string(append(wide, 0, 0)))
	f.Fuzz(func(t *testing.T, s string) {
		var df DataFile
		if decodeStats(s, &df) != nil {
			return
		}
		var again DataFile
		if err := decodeStats(encodeStats(df), &again); err != nil {
			t.Fatalf("accepted stats re-encode to bytes that do not decode: %v", err)
		}
		if !sameStats(df, again) {
			t.Fatalf("stats changed across encode and decode:\n%+v\n%+v", df, again)
		}
	})
}

// sameStats compares two DataFiles' statistics. Values compare by their
// wire encoding, so a NaN bound equals itself.
func sameStats(a, b DataFile) bool {
	same := func(x, y []colfile.Value) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if string(colfile.AppendValue(nil, x[i])) != string(colfile.AppendValue(nil, y[i])) {
				return false
			}
		}
		return true
	}
	if !same(a.Min, b.Min) || !same(a.Max, b.Max) || len(a.Zones) != len(b.Zones) || !reflect.DeepEqual(a.Blooms, b.Blooms) {
		return false
	}
	for i := range a.Zones {
		if !same(a.Zones[i].Min, b.Zones[i].Min) || !same(a.Zones[i].Max, b.Zones[i].Max) {
			return false
		}
	}
	return true
}

// FuzzDecodeSnapshot hardens the snapshot-file parser.
func FuzzDecodeSnapshot(f *testing.F) {
	valid, _ := EncodeSnapshot(Snapshot{
		ID: 2, ParentID: 1, Timestamp: time.Second,
		CommitIDs: []int64{1, 2}, RowCount: 5,
	})
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:4])
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		for _, df := range s.Files {
			if len(df.Min) != len(df.Max) {
				t.Fatal("asymmetric stats decoded")
			}
		}
	})
}
