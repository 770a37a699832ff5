package lakehouse

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"streamlake/internal/colfile"
	"streamlake/internal/tableobj"
)

// minAllocs is testing.AllocsPerRun(runs, f) taken in five windows,
// keeping the least: the counters it reads are process-wide, and what
// the runtime allocates for itself lands in some windows and not in
// others, while the code under test allocates alike in every one.
func minAllocs(runs int, f func()) float64 {
	least := testing.AllocsPerRun(runs, f)
	for w := 1; w < 5; w++ {
		least = min(least, testing.AllocsPerRun(runs, f))
	}
	return least
}

// TestScanAllocsFlatInFiles: a bare count(*) scan reads footers only,
// and every file's footer parses into the one Reader the scan keeps,
// so 100 one-group files cost at most a few allocations more than 10.
// The columns are integers: a string column's min and max are copied
// out of each footer, one allocation apiece, since GroupStats hands
// them to callers that keep them. (Measured: 8 allocations for both;
// with a Reader opened per file, 63 and 603.)
func TestScanAllocsFlatInFiles(t *testing.T) {
	e := newEngine(t, true)
	if _, err := e.CreateTable(tableobj.TableMeta{Name: "t", Path: "/lake/t", Schema: colfile.MustSchema("ts:int64", "v:int64")}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := e.Insert("t", []colfile.Row{{colfile.IntValue(int64(i)), colfile.IntValue(int64(i % 7))}}); err != nil {
			t.Fatal(err)
		}
	}
	plan, _, err := e.PlanScan("t", nil)
	if err != nil || len(plan.Files) != 100 {
		t.Fatalf("plan: %d files, %v", len(plan.Files), err)
	}
	count := func(files int) float64 {
		p := plan
		p.Files = plan.Files[:files]
		return minAllocs(10, func() {
			stats, _, err := e.ScanProjected("t", p, nil, []string{}, nil, func(colfile.Row) bool { return true })
			if err != nil || stats.RowsScanned != int64(files) {
				t.Fatalf("count(*) over %d files: %d rows, %v", files, stats.RowsScanned, err)
			}
		})
	}
	ten, hundred := count(10), count(100)
	if hundred > ten+4 {
		t.Fatalf("a count(*) scan allocates %.0f times over 100 files and %.0f over 10: a file costs allocations", hundred, ten)
	}
	t.Logf("count(*) scan: %.0f allocs over 10 files, %.0f over 100", ten, hundred)
}

// A query's plan makes its file list once, at its final length: planning
// 100 flushed files costs as many allocations as planning 10 (measured:
// 4 for both; growing the list one DataFile at a time, 8 and 11).
func TestPlanFileListAllocatedOnce(t *testing.T) {
	e := newEngine(t, true)
	count := func(files int) float64 {
		name := fmt.Sprintf("t%d", files)
		if _, err := e.CreateTable(tableobj.TableMeta{Name: name, Path: "/lake/" + name, Schema: colfile.MustSchema("ts:int64", "v:int64")}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < files; i++ {
			if _, err := e.Insert(name, []colfile.Row{{colfile.IntValue(int64(i)), colfile.IntValue(int64(i % 7))}}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Flush(name); err != nil {
			t.Fatal(err)
		}
		return minAllocs(10, func() {
			plan, _, err := e.plan(name, 0, nil, nil, false)
			if err != nil || len(plan.Files) != files {
				t.Fatalf("plan of %d files: %d, %v", files, len(plan.Files), err)
			}
		})
	}
	ten, hundred := count(10), count(100)
	if hundred > ten {
		t.Fatalf("planning 100 files allocates %.0f times, 10 files %.0f: the file list grows", hundred, ten)
	}
	t.Logf("plan: %.0f allocs over 10 files, %.0f over 100", ten, hundred)
}

// A sink names each partition once, when its first row arrives: 2,000
// rows in one partition, or in 7 runs over 3 partitions, cost far fewer
// allocations than rows (measured: 54 and 134, the column buffers'
// growth; 2,000 more when every row was named).
func TestSinkNamesEachPartitionOnce(t *testing.T) {
	e := newEngine(t, true)
	mkTable(t, e, "t")
	tbl, err := e.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	for _, runs := range [][]string{{"bj"}, {"bj", "sh", "bj", "gz", "sh", "bj", "gz"}} {
		var rows []colfile.Row
		for _, p := range runs {
			for k := 0; k < 2000/len(runs); k++ {
				rows = append(rows, row("http://u", int64(len(rows)), p, 1))
			}
		}
		n := minAllocs(10, func() {
			sink := tbl.Sink()
			for _, r := range rows {
				if err := sink.Append(r); err != nil {
					t.Fatal(err)
				}
			}
		})
		t.Logf("%d runs of %d rows: %.0f allocations", len(runs), len(rows), n)
		if n > float64(len(rows)/10) {
			t.Fatalf("%d runs of %d rows: %.0f allocations, want under one per ten rows", len(runs), len(rows), n)
		}
	}
}

// Shuffled partitions merge their runs into the files a per-row grouping
// writes with WriteRows, partition by partition in sorted order: the same
// files, ids, rows and bytes.
func TestInsertShuffledRunsMatchPerRowGrouping(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	provinces := []string{"bj", "sh", "gz", "sz"}
	var rows []colfile.Row
	for i := 0; i < 400; i++ {
		p := provinces[rng.Intn(len(provinces))]
		for k := rng.Intn(5); k >= 0; k-- {
			rows = append(rows, row(fmt.Sprintf("http://%s/%d", p, i), int64(len(rows)), p, int64(rng.Intn(100))))
		}
	}
	files := func(write func(*tableobj.Txn, *tableobj.Table) ([]tableobj.DataFile, error)) []string {
		e := newEngine(t, false)
		mkTable(t, e, "t")
		tbl, _ := e.Table("t")
		x, err := tbl.Begin()
		if err != nil {
			t.Fatal(err)
		}
		written, err := write(x, tbl)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, f := range written {
			blob, _, err := e.fs.Read(f.Path)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprintf("%s %d rows %x", f.Path, f.Rows, blob))
		}
		return out
	}
	runs := files(func(x *tableobj.Txn, tbl *tableobj.Table) ([]tableobj.DataFile, error) {
		return writeRows(x, tbl, rows, nil)
	})
	perRow := files(func(x *tableobj.Txn, tbl *tableobj.Table) ([]tableobj.DataFile, error) {
		m, parts := map[string][]colfile.Row{}, []string{}
		for _, r := range rows {
			if p := tbl.PartitionFor(r); m[p] == nil {
				parts = append(parts, p)
			}
			m[tbl.PartitionFor(r)] = append(m[tbl.PartitionFor(r)], r)
		}
		sort.Strings(parts)
		var out []tableobj.DataFile
		for _, p := range parts {
			f, err := x.WriteRows(m[p])
			if err != nil {
				return nil, err
			}
			out = append(out, f)
		}
		return out, nil
	})
	if !reflect.DeepEqual(runs, perRow) {
		t.Fatal("grouping by runs wrote other files than grouping row by row")
	}
}
