package tableobj

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"streamlake/internal/colfile"
)

// commitRows commits each batch as one data file and returns the files.
func commitRows(t *testing.T, tbl *Table, batches ...[]colfile.Row) []DataFile {
	t.Helper()
	var files []DataFile
	for _, rows := range batches {
		x, _ := tbl.Begin()
		f, err := x.WriteRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := x.Commit(); err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// MergeFiles writes the file WriteRows writes for the inputs' rows, byte
// for byte, and the same commit metadata, though the inputs' row groups
// end where the merged file's do not.
func TestMergeFilesEqualsWriteRows(t *testing.T) {
	e := newEnv(t)
	tbl := createTable(t, e, "t")
	var batches [][]colfile.Row
	var all []colfile.Row
	for b, n := range []int{5000, 7000, 300, 1} {
		rows := make([]colfile.Row, n)
		for i := range rows {
			rows[i] = dpiRow(fmt.Sprintf("http://u/%d", (i*7+b)%(50+250*b)), int64(b*10000-i), "Beijing")
		}
		batches, all = append(batches, rows), append(all, rows...)
	}
	files := commitRows(t, tbl, batches...)
	x, _ := tbl.Begin()
	merged, err := x.MergeFiles(files, nil)
	if err != nil {
		t.Fatal(err)
	}
	y, _ := tbl.Begin()
	want, err := y.WriteRows(all)
	if err != nil {
		t.Fatal(err)
	}
	got, _, _ := e.fs.Read(merged.Path)
	wantBlob, _, _ := e.fs.Read(want.Path)
	if !bytes.Equal(got, wantBlob) {
		t.Fatalf("the merged file (%d B) differs from WriteRows' (%d B)", len(got), len(wantBlob))
	}
	merged.Path, want.Path = "", ""
	if !reflect.DeepEqual(merged, want) {
		t.Fatalf("merged file metadata %+v, WriteRows' %+v", merged, want)
	}
	if len(x.removes) != len(files) || len(x.adds) != 1 {
		t.Fatalf("staged %d adds and %d removes", len(x.adds), len(x.removes))
	}
}

// Files of two partitions are not merged: MergeFiles fails with
// ErrPartitionSpan before it reads, writes or stages anything.
func TestMergeFilesRejectsMixedPartitions(t *testing.T) {
	e := newEnv(t)
	tbl := createTable(t, e, "t")
	files := commitRows(t, tbl, []colfile.Row{dpiRow("a", 1, "Beijing")}, []colfile.Row{dpiRow("b", 2, "Shanghai")})
	x, _ := tbl.Begin()
	start := x.Cost()
	if _, err := x.MergeFiles(files, nil); !errors.Is(err, ErrPartitionSpan) {
		t.Fatalf("merging two partitions: %v", err)
	}
	if len(x.adds) != 0 || len(x.removes) != 0 || x.Cost() != start {
		t.Fatalf("a rejected merge staged %d adds and %d removes and cost %v", len(x.adds), len(x.removes), x.Cost()-start)
	}
}

// Files that hold no rows merge into no file: their removal is staged
// and nothing is written.
func TestMergeFilesOfEmptyFilesWritesNone(t *testing.T) {
	e := newEnv(t)
	tbl := createTable(t, e, "t")
	empty, err := colfile.NewWriter(dpiSchema, 0).Finish()
	if err != nil {
		t.Fatal(err)
	}
	x, _ := tbl.Begin()
	var files []DataFile
	for i := 0; i < 2; i++ {
		f := DataFile{Path: DataPath("/lake/t", "province=Beijing", tbl.nextID()), Partition: "province=Beijing"}
		if _, err := e.fs.Write(f.Path, empty); err != nil {
			t.Fatal(err)
		}
		x.AddFile(f)
		files = append(files, f)
	}
	if _, err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	before, _ := e.fs.List("/lake/t/data/")
	y, _ := tbl.Begin()
	merged, err := y.MergeFiles(files, nil)
	if err != nil || merged.Path != "" {
		t.Fatalf("merging empty files: %+v, %v", merged, err)
	}
	if after, _ := e.fs.List("/lake/t/data/"); len(after) != len(before) || len(y.adds) != 0 || len(y.removes) != 2 {
		t.Fatalf("merging empty files wrote %d files and staged %d adds, %d removes", len(after)-len(before), len(y.adds), len(y.removes))
	}
}
