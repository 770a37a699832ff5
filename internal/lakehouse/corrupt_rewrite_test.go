package lakehouse

import (
	"fmt"
	"testing"

	"streamlake/internal/colfile"
	"streamlake/internal/tableobj"
)

// corruptLastGroup overwrites the file at path with a copy whose last row
// group's first chunk opens with the reserved DEFLATE block type. The
// file still opens and its earlier groups still decode.
func corruptLastGroup(t *testing.T, fs *tableobj.FileStore, path string) {
	t.Helper()
	blob, _, err := fs.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := colfile.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	last := r.NumRowGroups() - 1
	off := 5 // magic and version; then every group's chunks in order
	for g := 0; g < last; g++ {
		off += int(r.GroupBytes(g))
	}
	bad := append([]byte(nil), blob...)
	bad[off] |= 0x06
	if r, err = colfile.Open(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadGroup(last, nil); err == nil {
		t.Fatal("the damaged chunk still decodes")
	}
	if _, err := fs.Write(path, bad); err != nil {
		t.Fatal(err)
	}
}

// rowCount is count(*) as planning sees it.
func rowCount(t *testing.T, e *Engine) int64 {
	t.Helper()
	plan, _, err := e.PlanScan("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, f := range plan.Files {
		n += f.Rows
	}
	return n
}

// damagedTable holds one 10,000-row file (two row groups) whose second
// group fails to inflate.
func damagedTable(t *testing.T) *Engine {
	e := newEngine(t, true)
	mkTable(t, e, "t")
	rows := make([]colfile.Row, 10_000)
	for i := range rows {
		rows[i] = row(fmt.Sprintf("u%d", i), int64(i), "Beijing", 1)
	}
	if _, err := e.Insert("t", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Flush("t"); err != nil {
		t.Fatal(err)
	}
	plan, _, err := e.PlanScan("t", nil)
	if err != nil || len(plan.Files) != 1 {
		t.Fatalf("plan: %+v %v", plan, err)
	}
	corruptLastGroup(t, e.fs, plan.Files[0].Path)
	return e
}

// A DELETE that meets a file it cannot decode fails and commits nothing;
// it used to drop the file and keep only the rows read before the damage.
func TestDeleteFailsOnUndecodableFile(t *testing.T) {
	e := damagedTable(t)
	if _, _, err := e.Delete("t", []RangeFilter{{Column: "start_time", Lo: iv(0), Hi: iv(99)}}); err == nil {
		t.Fatal("delete over a damaged file succeeded")
	}
	if n := rowCount(t, e); n != 10_000 {
		t.Fatalf("count(*) = %d after a failed delete, want 10000", n)
	}
}

// An UPDATE that meets a file it cannot decode fails and commits nothing.
func TestUpdateFailsOnUndecodableFile(t *testing.T) {
	e := damagedTable(t)
	_, _, err := e.Update("t", []RangeFilter{{Column: "start_time", Lo: iv(0), Hi: iv(99)}},
		func(r colfile.Row) colfile.Row { r[3] = colfile.IntValue(2); return r })
	if err == nil {
		t.Fatal("update over a damaged file succeeded")
	}
	if n := rowCount(t, e); n != 10_000 {
		t.Fatalf("count(*) = %d after a failed update, want 10000", n)
	}
}
