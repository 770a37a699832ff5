package lakehouse

import (
	"fmt"
	"testing"

	"streamlake/internal/colfile"
	"streamlake/internal/tableobj"
)

// filePrune unit coverage: a file is pruned when its value range misses
// a filter's, or when it holds no rows; a filter on a column the schema
// lacks constrains nothing.
func TestFilePruneReasons(t *testing.T) {
	schema := colfile.MustSchema("k:int64")
	f := tableobj.DataFile{
		Rows: 8,
		Min:  []colfile.Value{colfile.IntValue(1)},
		Max:  []colfile.Value{colfile.IntValue(109)},
	}
	cases := []struct {
		lo, hi int64
		want   bool
	}{
		{5, 7, false},      // inside the file range
		{200, 300, true},   // outside the file range entirely
		{50, 60, false},    // inside the range, whatever the rows hold
		{105, 105, false},  // equality inside the range
		{9999, 9999, true}, // equality outside the range
		{-5, 1, false},     // touching the minimum
		{109, 200, false},  // touching the maximum
		{-10, 0, true},     // just below the minimum
		{110, 110, true},   // just above the maximum
	}
	for _, c := range cases {
		got := filePrune(schema, f, []RangeFilter{{Column: "k", Lo: iv(c.lo), Hi: iv(c.hi)}})
		if got != c.want {
			t.Fatalf("prune [%d,%d]: got %v want %v", c.lo, c.hi, got, c.want)
		}
	}
	if filePrune(schema, f, []RangeFilter{{Column: "absent", Lo: iv(200), Hi: iv(300)}}) {
		t.Fatal("a filter on a column the schema lacks pruned the file")
	}
	if !filePrune(schema, tableobj.DataFile{Min: f.Min, Max: f.Max}, nil) {
		t.Fatal("a file of no rows was not pruned")
	}
}

// A table of 255 columns writes a stats column count whose first byte
// is 0xFF, the byte an earlier encoding used as its marker. Its commits
// must still fold into a manifest that a fresh engine reopens, and that
// manifest must prune on each file's range of the last column.
func TestWideTablePrunesOnFileRanges(t *testing.T) {
	const cols = 255
	specs := make([]string, cols)
	for c := range specs {
		specs[c] = fmt.Sprintf("c%d:int64", c)
	}
	meta := tableobj.TableMeta{Name: "wide", Path: "/lake/wide", Schema: colfile.MustSchema(specs...)}
	e := newEngine(t, true)
	if _, err := e.CreateTable(meta); err != nil {
		t.Fatal(err)
	}
	const files = 4
	for f := 0; f < files; f++ {
		var rows []colfile.Row
		for i := 0; i < 3; i++ {
			r := make(colfile.Row, cols)
			for c := range r {
				r[c] = colfile.IntValue(int64(f*100 + i + c))
			}
			rows = append(rows, r)
		}
		if _, err := e.Insert("wide", rows); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Flush("wide"); err != nil {
		t.Fatal(err)
	}
	reopened := New(e.clock, e.fs, e.cat, Options{Acceleration: true, FlushEvery: 8})
	// File 2 holds c254 in [454, 456]; the others miss [450, 460].
	filters := []RangeFilter{{Column: fmt.Sprintf("c%d", cols-1), Lo: iv(450), Hi: iv(460)}}
	plan, _, err := reopened.PlanScan("wide", filters)
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalFiles != files || len(plan.Files) != 1 || plan.SkippedFiles != files-1 {
		t.Fatalf("plan over %d wide files: %+v", files, plan)
	}
	f := plan.Files[0]
	if len(f.Min) != cols || f.Min[cols-1].Int != 454 || f.Max[cols-1].Int != 456 {
		t.Fatalf("the admitted file's last range: %v..%v of %d columns", f.Min[cols-1], f.Max[cols-1], len(f.Min))
	}
	var matched int
	if _, _, err := reopened.Scan("wide", plan, filters, func(colfile.Row) bool { matched++; return true }); err != nil || matched != 3 {
		t.Fatalf("scan of the admitted file: %d rows, %v", matched, err)
	}
}
