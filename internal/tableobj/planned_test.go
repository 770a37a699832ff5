package tableobj

import (
	"errors"
	"testing"

	"streamlake/internal/colfile"
)

// fourFiles commits four one-partition files of two rows each and
// returns them.
func fourFiles(t *testing.T, tbl *Table) []DataFile {
	t.Helper()
	for i := int64(0); i < 4; i++ {
		x, _ := tbl.Begin()
		if _, err := x.WriteRows([]colfile.Row{dpiRow("keep", 2*i, "Beijing"), dpiRow("drop", 2*i+1, "Beijing")}); err != nil {
			t.Fatal(err)
		}
		if _, err := x.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	cur, _, err := tbl.Current()
	if err != nil || len(cur.Files) != 4 || cur.RowCount != 8 {
		t.Fatalf("setup: %d files, %d rows, %v", len(cur.Files), cur.RowCount, err)
	}
	return cur.Files
}

// A DELETE plans on one snapshot and begins on a later one. When a
// compaction merged the file it rewrites in between, its commit must fail
// and withdraw its rewrite, or the survivors land twice: once in the
// merged file and once in the rewrite.
func TestDeletePlannedBeforeCompactionFailsAtCommit(t *testing.T) {
	e := newEnv(t)
	tbl := createTable(t, e, "t")
	plan := fourFiles(t, tbl)

	compact, _ := tbl.Begin()
	if _, err := compact.MergeFiles(plan, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := compact.Commit(); err != nil {
		t.Fatal(err)
	}

	del, _ := tbl.Begin()
	del.RemoveFile(plan[0])
	rewrite, err := del.WriteRows([]colfile.Row{dpiRow("keep", 0, "Beijing")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := del.Commit(); !errors.Is(err, ErrFileGone) || errors.Is(err, ErrConflict) {
		t.Fatalf("delete over a compacted file: %v, want ErrFileGone", err)
	}
	if cur, _, err := tbl.Current(); err != nil || len(cur.Files) != 1 || cur.RowCount != 8 {
		t.Fatalf("after the delete: %d files, %d rows (%v); want the compaction's 1 file of 8", len(cur.Files), cur.RowCount, err)
	}
	if _, _, err := e.fs.Read(rewrite.Path); !errors.Is(err, ErrNotFound) {
		t.Fatalf("the delete's rewrite is still stored: %v", err)
	}
}

// The mirror case: a compaction plans its bins, a DELETE commits, and
// only then does the compaction begin. Its commit must fail and withdraw
// the merged file, or the deleted rows come back inside it.
func TestCompactionPlannedBeforeDeleteFailsAtCommit(t *testing.T) {
	e := newEnv(t)
	tbl := createTable(t, e, "t")
	plan := fourFiles(t, tbl)

	del, _ := tbl.Begin()
	del.RemoveFile(plan[0])
	if _, err := del.WriteRows([]colfile.Row{dpiRow("keep", 0, "Beijing")}); err != nil {
		t.Fatal(err)
	}
	if _, err := del.Commit(); err != nil {
		t.Fatal(err)
	}

	compact, _ := tbl.Begin()
	merged, err := compact.MergeFiles(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := compact.Commit(); !errors.Is(err, ErrFileGone) || errors.Is(err, ErrConflict) {
		t.Fatalf("compaction over a deleted file: %v, want ErrFileGone", err)
	}
	if cur, _, err := tbl.Current(); err != nil || len(cur.Files) != 4 || cur.RowCount != 7 {
		t.Fatalf("after the compaction: %d files, %d rows (%v); want the delete's 4 files of 7", len(cur.Files), cur.RowCount, err)
	}
	if _, _, err := e.fs.Read(merged.Path); !errors.Is(err, ErrNotFound) {
		t.Fatalf("the compaction's merged file is still stored: %v", err)
	}
}
