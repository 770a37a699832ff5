package colfile

import (
	"bytes"
	"testing"
	"unsafe"
)

// A cell is five words: the string header, Int, Float, and Type with
// Bool in the last word's padding. Putting Type first costs a sixth.
func TestValueIs40Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 40 {
		t.Fatalf("Value is %d bytes, want 40", n)
	}
}

// writeBoth writes rows through an Append loop and through AppendRows
// and returns both files and writers.
func writeBoth(t *testing.T, rows []Row, gs int) (a, b []byte, wa, wb *Writer) {
	t.Helper()
	wa, wb = NewWriter(testSchema, gs), NewWriter(testSchema, gs)
	for _, r := range rows {
		if err := wa.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := wb.AppendRows(rows); err != nil {
		t.Fatal(err)
	}
	var err error
	if a, err = wa.Finish(); err != nil {
		t.Fatal(err)
	}
	if b, err = wb.Finish(); err != nil {
		t.Fatal(err)
	}
	return a, b, wa, wb
}

// AppendRows writes the file an Append loop writes, byte for byte and
// group statistic for statistic, at every count around the group size.
func TestAppendRowsMatchesAppend(t *testing.T) {
	const gs = 16
	for _, n := range []int{0, 1, gs - 1, gs, gs + 1, 3*gs + 7} {
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = makeRow(i)
		}
		a, b, wa, wb := writeBoth(t, rows, gs)
		if !bytes.Equal(a, b) {
			t.Fatalf("%d rows: AppendRows wrote %d bytes unlike Append's %d", n, len(b), len(a))
		}
		if len(wa.groups) != len(wb.groups) {
			t.Fatalf("%d rows: %d groups, Append %d", n, len(wb.groups), len(wa.groups))
		}
		for g := range wa.groups {
			for c := range testSchema.Fields {
				if sa, sb := wa.groups[g].stats[c], wb.groups[g].stats[c]; !sameValue(sa.Min, sb.Min) || !sameValue(sa.Max, sb.Max) || sa.Count != sb.Count {
					t.Fatalf("%d rows group %d column %d: stats %+v, Append %+v", n, g, c, sb, sa)
				}
			}
		}
	}
}

// Append and AppendRows interleave into the file an Append loop writes,
// and neither writes into the caller's spare capacity.
func TestAppendRowsInterleavesWithAppend(t *testing.T) {
	const gs = 16
	all := make([]Row, 5*gs+3)
	for i := range all {
		all[i] = makeRow(i)
	}
	w := NewWriter(testSchema, gs)
	appendEach := func(rows []Row) {
		for _, r := range rows {
			if err := w.Append(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendEach(all[:3])
	n := 2*gs + 5 // tops up the open group, one whole group, a tail of 8
	batch := make([]Row, n, n+1)
	copy(batch, all[3:])
	spare := makeRow(999)
	batch[:n+1][n] = spare
	if err := w.AppendRows(batch); err != nil {
		t.Fatal(err)
	}
	appendEach(all[3+n : 4+n])
	if !sameValue(batch[:n+1][n][1], spare[1]) {
		t.Fatal("Append wrote into the caller's spare capacity")
	}
	if err := w.AppendRows(all[4+n:]); err != nil {
		t.Fatal(err)
	}
	got, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buildFile(t, len(all), gs)) {
		t.Fatal("interleaved Append and AppendRows wrote another file")
	}
}

// AppendRows appends nothing when one row is invalid.
func TestAppendRowsRejectsWholeBatch(t *testing.T) {
	w := NewWriter(testSchema, 4)
	rows := []Row{makeRow(0), makeRow(1), {IntValue(1)}}
	if err := w.AppendRows(rows); err == nil || len(w.groups) != 0 {
		t.Fatalf("invalid batch: err %v, %d groups", err, len(w.groups))
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if r, err := Open(data); err != nil || r.NumRows() != 0 {
		t.Fatalf("the file after a rejected batch: %v, err %v", r, err)
	}
}

// Rows decoded after Recycle equal a fresh decoder's rows, though they
// overwrite the storage the first file's rows used.
func TestRowDecoderRecycle(t *testing.T) {
	var dec RowDecoder
	for _, shape := range []struct{ rows, group int }{{250, 100}, {40, 0}, {1000, 200}, {7, 4}, {250, 100}} {
		r, err := Open(buildFile(t, shape.rows, shape.group))
		if err != nil {
			t.Fatal(err)
		}
		dec.Recycle()
		got, err := dec.AppendRows(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		var fresh RowDecoder
		want, err := fresh.AppendRows(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%d-row file: %d rows after Recycle", shape.rows, len(got))
		}
		for i := range want {
			for c := range want[i] {
				if !sameValue(got[i][c], want[i][c]) {
					t.Fatalf("%d-row file row %d column %d: %v after Recycle, %v fresh", shape.rows, i, c, got[i][c], want[i][c])
				}
			}
		}
	}
	// Recycled, the decoder carves the next file's rows from the storage
	// the last one used.
	r, _ := Open(buildFile(t, 250, 100))
	dec.Recycle()
	first, _ := dec.AppendRows(nil, r)
	dec.Recycle()
	again, _ := dec.AppendRows(nil, r)
	if &first[0][0] != &again[0][0] {
		t.Fatal("a recycled decode took new row storage")
	}
}
