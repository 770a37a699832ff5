package lakehouse

import (
	"errors"
	"fmt"
	"testing"

	"streamlake/internal/colfile"
	"streamlake/internal/tableobj"
)

func TestOperationsOnUnknownTable(t *testing.T) {
	e := newEngine(t, true)
	if _, _, err := e.PlanScan("ghost", nil); !errors.Is(err, tableobj.ErrUnknownTable) {
		t.Fatalf("plan: %v", err)
	}
	if _, _, err := e.Delete("ghost", nil); !errors.Is(err, tableobj.ErrUnknownTable) {
		t.Fatalf("delete: %v", err)
	}
	if _, _, err := e.Update("ghost", nil, nil); !errors.Is(err, tableobj.ErrUnknownTable) {
		t.Fatalf("update: %v", err)
	}
	if _, err := e.DropSoft("ghost"); !errors.Is(err, tableobj.ErrUnknownTable) {
		t.Fatalf("drop soft: %v", err)
	}
	if _, err := e.Flush("ghost"); !errors.Is(err, tableobj.ErrUnknownTable) {
		t.Fatalf("flush: %v", err)
	}
	if _, err := e.Restore("ghost"); err == nil {
		t.Fatal("restore unknown table succeeded")
	}
}

func TestScanEarlyStop(t *testing.T) {
	e := newEngine(t, true)
	mkTable(t, e, "t")
	var rows []colfile.Row
	for i := 0; i < 100; i++ {
		rows = append(rows, row(fmt.Sprintf("u%d", i), int64(i), "Beijing", 1))
	}
	e.Insert("t", rows)
	plan, _, _ := e.PlanScan("t", nil)
	n := 0
	_, _, err := e.Scan("t", plan, nil, func(colfile.Row) bool {
		n++
		return n < 10
	})
	if err != nil || n != 10 {
		t.Fatalf("early stop: n=%d %v", n, err)
	}
}

func TestDeleteNothingMatches(t *testing.T) {
	e := newEngine(t, true)
	mkTable(t, e, "t")
	e.Insert("t", []colfile.Row{row("a", 1, "B", 1)})
	n, _, err := e.Delete("t", []RangeFilter{{Column: "start_time", Lo: iv(100), Hi: iv(200)}})
	if err != nil || n != 0 {
		t.Fatalf("empty delete: %d %v", n, err)
	}
	// Data intact.
	plan, _, _ := e.PlanScan("t", nil)
	var count int
	e.Scan("t", plan, nil, func(colfile.Row) bool { count++; return true })
	if count != 1 {
		t.Fatalf("rows after no-op delete: %d", count)
	}
}

func TestFileBasedPlanningWithUnflushedBaselineTable(t *testing.T) {
	// The file-based engine commits per insert, so planning sees data
	// immediately.
	e := newEngine(t, false)
	mkTable(t, e, "t")
	e.Insert("t", []colfile.Row{row("a", 1, "Beijing", 1), row("b", 2, "Shanghai", 1)})
	plan, cost, err := e.PlanScan("t", nil)
	if err != nil || cost <= 0 {
		t.Fatal(err)
	}
	if len(plan.Files) != 2 {
		t.Fatalf("baseline plan: %+v", plan)
	}
	// Partition names recovered from paths.
	seen := map[string]bool{}
	for _, f := range plan.Files {
		seen[f.Partition] = true
	}
	if !seen["province=Beijing"] || !seen["province=Shanghai"] {
		t.Fatalf("partitions: %v", seen)
	}
}

// pending reports the table's write-cache backlog: the files inserted
// and not yet folded into a snapshot.
func pending(e *Engine, name string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if st, ok := e.tables[name]; ok {
		return len(st.pendingAdds)
	}
	return 0
}

func TestFlushEmptyIsNoop(t *testing.T) {
	e := newEngine(t, true)
	mkTable(t, e, "t")
	cost, err := e.Flush("t")
	if err != nil || cost != 0 {
		t.Fatalf("empty flush: %v %v", cost, err)
	}
}

func TestUpdateNoMatchesLeavesFilesAlone(t *testing.T) {
	e := newEngine(t, true)
	mkTable(t, e, "t")
	e.Insert("t", []colfile.Row{row("a", 1, "B", 1)})
	e.Flush("t")
	before := e.fs.Count()
	n, _, err := e.Update("t", []RangeFilter{{Column: "start_time", Lo: iv(50), Hi: iv(60)}},
		func(r colfile.Row) colfile.Row { return r })
	if err != nil || n != 0 {
		t.Fatalf("no-op update: %d %v", n, err)
	}
	// No data file rewritten, and, as the statement staged nothing, no
	// commit either.
	if e.fs.Count() != before {
		t.Fatalf("no-op update wrote files: %d -> %d", before, e.fs.Count())
	}
}
