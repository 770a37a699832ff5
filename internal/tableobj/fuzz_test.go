package tableobj

import (
	"encoding/binary"
	"reflect"
	"slices"
	"testing"
	"time"

	"streamlake/internal/colfile"
)

// FuzzDecodeCommit hardens the commit-file parser, and the fold over
// it: a snapshot whose one commit since the empty table is any commit
// DecodeCommit accepts folds, without panic, to that commit's adds.
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
		adds := 0
		for _, op := range c.Ops {
			if len(op.File.Min) != len(op.File.Max) {
				t.Fatal("asymmetric stats decoded")
			}
			if op.Add {
				adds++
			}
		}
		h := Manifest{kind: kindHeader, Snapshot: Snapshot{ID: c.ID}, since: []int64{c.ID}}
		m, _, err := fold("t", &h, nil, func(string) ([]byte, time.Duration, error) { return data, 0, nil })
		if err != nil || len(m.Entries) != adds || !slices.Equal(m.CommitIDs, []int64{c.ID}) {
			t.Fatalf("a fold over an accepted commit of %d adds: %v", adds, err)
		}
	})
}

// FuzzDecodeStats hardens the per-file stats decoder on its own: no
// input panics, Check accepts exactly the bytes decodeStats does, and
// any DataFile it accepts survives encodeStats and decodeStats
// unchanged.
func FuzzDecodeStats(f *testing.F) {
	iv := colfile.IntValue
	for _, df := range []DataFile{
		{},
		{Min: []colfile.Value{iv(1), colfile.StringValue("a")}, Max: []colfile.Value{iv(9), colfile.StringValue("z")}},
	} {
		f.Add(encodeStats(df))
	}
	// Bytes an earlier encoding wrote: a 0xFF marker, one column's range,
	// then two zones and a bloom filter over one column. The count
	// 0xFF 0x01 they start with is far more pairs than the bytes hold.
	f.Add("\xff\x01\x00\x02\x00\x12\x02\x01\x00\x02\x00\b\x00\x02\n\x00\x00@\x10\x00\x00\x00\x02\b\x00\x04\x00")
	// The same earlier encoding of 255 columns, marker first.
	wide := binary.AppendUvarint([]byte{0xFF}, 255)
	for i := 0; i < 255; i++ {
		wide = colfile.AppendValue(colfile.AppendValue(wide, iv(int64(i))), iv(int64(i)))
	}
	f.Add(string(append(wide, 0, 0)))
	f.Fuzz(func(t *testing.T, s string) {
		var df DataFile
		err := decodeStats([]byte(s), &df, true)
		if walked := (ManifestEntry{stats: []byte(s)}).Check(); (walked == nil) != (err == nil) {
			t.Fatalf("the stats walk and the decode disagree: %v, %v", walked, err)
		}
		if err != nil {
			return
		}
		var again DataFile
		if err := decodeStats([]byte(encodeStats(df)), &again, true); err != nil {
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
	return same(a.Min, b.Min) && same(a.Max, b.Max)
}

// FuzzDecodeSnapshot hardens the snapshot-file parser, of headers and
// of checkpoints, and holds the lazy decoder to it. A header it accepts
// holds no files and survives encode and DecodeManifest unchanged. For
// any input decodeSnapshot accepts, every file's
// stats are symmetric, each manifest entry's File is the DataFile
// decodeSnapshot returned, and the entry's encoded range check answers
// as DataFile.Overlaps does for
// every column, with nil bounds and bounds drawn from the values the
// snapshot's files hold (a file's own range always overlaps itself).
// On inputs it refuses, truncated stats among them, the lazy path still
// must not panic.
func FuzzDecodeSnapshot(f *testing.F) {
	valid, _ := encodeSnapshot(Snapshot{
		ID: 2, ParentID: 1, Timestamp: time.Second,
		CommitIDs: []int64{1, 2}, RowCount: 5,
	})
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:4])
	iv, sv, fv := colfile.IntValue, colfile.StringValue, colfile.FloatValue
	files, _ := encodeSnapshot(Snapshot{ID: 3, ParentID: 2, CommitIDs: []int64{3}, Files: []DataFile{
		{Path: "t/a", Partition: "p=1", Rows: 4, Bytes: 90,
			Min: []colfile.Value{sv("a"), iv(1), fv(0.5), colfile.BoolValue(false)},
			Max: []colfile.Value{sv("q"), iv(9), fv(2.5), colfile.BoolValue(true)}},
		{Path: "t/b", Rows: 2, Min: []colfile.Value{sv("c"), iv(3)}, Max: []colfile.Value{sv("x"), iv(7)}},
	}})
	f.Add(files)
	f.Add(files[:len(files)-3])
	header, _ := (&Manifest{kind: kindHeader, Snapshot: Snapshot{ID: 9, ParentID: 3, Timestamp: time.Hour, RowCount: 6, AddedFiles: 1, AddedRows: 2},
		checkpoint: 3, checkpointBytes: int64(len(files)), deltaBytes: 300, since: []int64{5, 9}}).encode()
	f.Add(header)
	f.Add(header[:len(header)-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		m, merr := DecodeManifest(data)
		if merr == nil && m.kind == kindHeader {
			blob, _ := m.encode()
			again, err := DecodeManifest(blob)
			if err != nil || len(m.Entries) != 0 || !reflect.DeepEqual(again, m) {
				t.Fatalf("header %+v re-decodes to %+v (%v)", m, again, err)
			}
		}
		s, err := decodeSnapshot(data)
		if err != nil {
			for _, e := range m.Entries {
				e.File()
				for c := -1; c < 16; c++ {
					e.Overlaps(c, nil, nil)
				}
			}
			return
		}
		if merr != nil || len(m.Entries) != len(s.Files) || m.ID != s.ID || m.RowCount != s.RowCount {
			t.Fatalf("manifest (%d entries, %v) disagrees with snapshot (%d files)", len(m.Entries), merr, len(s.Files))
		}
		for i, e := range m.Entries {
			want := s.Files[i]
			if len(want.Min) != len(want.Max) {
				t.Fatal("asymmetric stats decoded")
			}
			// decodeSnapshot is DecodeManifest plus File, so this pins only
			// that composition: entry order and a repeatable File. The
			// range comparison below is the differential check.
			got, err := e.File()
			if err != nil || got.Path != want.Path || got.Partition != want.Partition ||
				got.Rows != want.Rows || got.Bytes != want.Bytes || !sameStats(got, want) {
				t.Fatalf("entry %d decodes to %+v (%v), snapshot holds %+v", i, got, err, want)
			}
			for c := -1; c <= len(want.Min); c++ {
				loType, hiType := noType, noType // lo meets Max[c], hi meets Min[c]
				if c >= 0 && c < len(want.Min) {
					loType, hiType = want.Max[c].Type, want.Min[c].Type
				}
				for _, lo := range bounds(s, loType) {
					for _, hi := range bounds(s, hiType) {
						if g, w := e.Overlaps(c, lo, hi), want.Overlaps(c, lo, hi); g != w {
							t.Fatalf("entry %d column %d [%v, %v]: encoded check says %v, DataFile.Overlaps %v", i, c, lo, hi, g, w)
						}
					}
				}
			}
		}
	})
}

// noType is a column type no stats decoder accepts, so bounds(s, noType)
// holds only the unbounded nil.
const noType colfile.Type = 255

// bounds returns nil and up to six values of type t from the files'
// ranges, as range bounds.
func bounds(s Snapshot, t colfile.Type) []*colfile.Value {
	out := []*colfile.Value{nil}
	for _, f := range s.Files {
		for _, vs := range [][]colfile.Value{f.Min, f.Max} {
			for i := range vs {
				if vs[i].Type == t && len(out) < 7 {
					out = append(out, &vs[i])
				}
			}
		}
	}
	return out
}

// encodeSnapshot encodes s, files and all, as a checkpoint.
func encodeSnapshot(s Snapshot) ([]byte, error) {
	m := Manifest{kind: kindCheckpoint, Snapshot: s}
	for _, f := range s.Files {
		m.Entries = append(m.Entries, entryOfFile(f))
	}
	return m.encode()
}

// decodeSnapshot parses a header or a checkpoint with every file's
// stats: a header holds no files.
func decodeSnapshot(data []byte) (Snapshot, error) {
	m, err := DecodeManifest(data)
	if err != nil {
		return m.Snapshot, err
	}
	return m.snapshot()
}
