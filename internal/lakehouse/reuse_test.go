package lakehouse

import (
	"fmt"
	"math/rand"
	"reflect"
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

// byPartition names each run of rows once: 2,000 rows in one partition
// cost a constant count of allocations, and 7 runs over 3 partitions
// one name each plus the copies their repeats need (measured: 3 and 12;
// 2,015 for one partition when every row was named). Either way the
// result is what naming every row gives, and the caller's rows stay
// where they were.
func TestByPartitionNamesEachRunOnce(t *testing.T) {
	e := newEngine(t, true)
	mkTable(t, e, "t")
	tbl, err := e.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	rowsIn := func(runs ...string) []colfile.Row {
		var rows []colfile.Row
		for _, p := range runs {
			for k := 0; k < 2000/len(runs); k++ {
				rows = append(rows, row("http://u", int64(len(rows)), p, 1))
			}
		}
		return rows
	}
	for _, c := range []struct {
		runs   []string
		allocs float64
	}{
		{[]string{"bj"}, 3},
		{[]string{"bj", "sh", "bj", "gz", "sh", "bj", "gz"}, 3 + 7 + 3*2},
	} {
		rows := rowsIn(c.runs...)
		orig := append([]colfile.Row(nil), rows...)
		naive := map[string][]colfile.Row{}
		for _, r := range rows {
			naive[tbl.PartitionFor(r)] = append(naive[tbl.PartitionFor(r)], r)
		}
		if got := byPartition(tbl, rows); !reflect.DeepEqual(got, naive) {
			t.Fatalf("%d runs: byPartition disagrees with naming every row", len(c.runs))
		}
		if !reflect.DeepEqual(rows, orig) {
			t.Fatalf("%d runs: byPartition moved the caller's rows", len(c.runs))
		}
		if n := minAllocs(10, func() { byPartition(tbl, rows) }); n > c.allocs {
			t.Fatalf("%d runs of %d rows: %.0f allocations, want <= %.0f", len(c.runs), len(rows), n, c.allocs)
		}
	}
}

// Shuffled partitions merge their runs into the files a per-row grouping
// writes: the same files, ids, rows and bytes.
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
	files := func(group func(map[string][]colfile.Row)) []string {
		e := newEngine(t, false)
		mkTable(t, e, "t")
		tbl, _ := e.Table("t")
		x, err := tbl.Begin()
		if err != nil {
			t.Fatal(err)
		}
		parts := map[string][]colfile.Row{}
		group(parts)
		written, err := x.WritePartitions(parts)
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
	e := newEngine(t, false)
	mkTable(t, e, "t")
	tbl, _ := e.Table("t")
	runs := files(func(m map[string][]colfile.Row) {
		for p, rs := range byPartition(tbl, rows) {
			m[p] = rs
		}
	})
	perRow := files(func(m map[string][]colfile.Row) {
		for _, r := range rows {
			m[tbl.PartitionFor(r)] = append(m[tbl.PartitionFor(r)], r)
		}
	})
	if !reflect.DeepEqual(runs, perRow) {
		t.Fatal("grouping by runs wrote other files than grouping row by row")
	}
}
