package lakehouse

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"streamlake/internal/colfile"
	"streamlake/internal/tableobj"
)

// randomTable creates a table with a random schema (column 0 is the
// string partition column) and loads rows in a few inserts, one of them
// large enough that its file has more than one row group.
func randomTable(t testing.TB, rng *rand.Rand, e *Engine, name string) (colfile.Schema, []colfile.Row) {
	t.Helper()
	types := []string{"int64", "float64", "string", "bool"}
	specs := []string{"part:string"}
	for c := 1; c < 3+rng.Intn(5); c++ {
		specs = append(specs, fmt.Sprintf("c%d:%s", c, types[rng.Intn(len(types))]))
	}
	schema := colfile.MustSchema(specs...)
	if _, err := e.CreateTable(tableobj.TableMeta{Name: name, Path: "/lake/" + name, Schema: schema, PartitionColumn: "part"}); err != nil {
		t.Fatal(err)
	}
	var all []colfile.Row
	for _, n := range []int{1 + rng.Intn(50), colfile.DefaultRowGroupSize + 1 + rng.Intn(300), 1 + rng.Intn(500)} {
		parts := 1 + rng.Intn(3)
		if n > colfile.DefaultRowGroupSize {
			parts = 1
		}
		batch := make([]colfile.Row, n)
		for i := range batch {
			row := colfile.Row{colfile.StringValue(fmt.Sprintf("p%d", rng.Intn(parts)))}
			for _, f := range schema.Fields[1:] {
				switch f.Type {
				case colfile.Int64:
					row = append(row, colfile.IntValue(int64(len(all)+i)+int64(rng.Intn(20))))
				case colfile.Float64:
					row = append(row, colfile.FloatValue(float64(rng.Intn(1000))/8))
				case colfile.String:
					row = append(row, colfile.StringValue(fmt.Sprintf("s%03d", rng.Intn(400))))
				case colfile.Bool:
					row = append(row, colfile.BoolValue(rng.Intn(2) == 0))
				}
			}
			batch[i] = row
		}
		if _, err := e.Insert(name, batch); err != nil {
			t.Fatal(err)
		}
		all = append(all, batch...)
	}
	return schema, all
}

// randomFilters draws range filters over the non-bool columns, bounds
// taken from loaded rows so they select something.
func randomFilters(rng *rand.Rand, schema colfile.Schema, rows []colfile.Row) []RangeFilter {
	var filters []RangeFilter
	for c, f := range schema.Fields {
		if f.Type == colfile.Bool || rng.Intn(3) != 0 {
			continue
		}
		a, b := rows[rng.Intn(len(rows))][c], rows[rng.Intn(len(rows))][c]
		if colfile.Compare(a, b) > 0 {
			a, b = b, a
		}
		flt := RangeFilter{Column: f.Name}
		if rng.Intn(4) != 0 {
			flt.Lo = &a
		}
		if rng.Intn(4) != 0 {
			flt.Hi = &b
		}
		filters = append(filters, flt)
	}
	return filters
}

// A projected scan is the all-column scan restricted to the projected
// and filtered columns: same rows in the same order, same statistics,
// same modelled cost, every other cell zero. Covered: random schemas,
// files of one and several row groups, filters on projected and
// unprojected columns, the empty projection (count(*)) with and without
// a filter, and nil (select *).
func TestProjectedScanEqualsFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(20260926))
	for trial := 0; trial < 6; trial++ {
		e := newEngine(t, trial%2 == 0)
		schema, rows := randomTable(t, rng, e, "t")
		for q := 0; q < 8; q++ {
			var filters []RangeFilter
			if q > 0 { // q == 0: no WHERE at all
				filters = randomFilters(rng, schema, rows)
			}
			var columns []string // q%4 == 3: nil, every column
			if q%4 != 3 {
				columns = []string{}
				for _, f := range schema.Fields {
					if q%4 != 0 && rng.Intn(2) == 0 { // q%4 == 0: nothing projected
						columns = append(columns, f.Name)
					}
				}
			}
			kept := make([]bool, schema.NumFields())
			for c, f := range schema.Fields {
				kept[c] = columns == nil
				for _, name := range columns {
					kept[c] = kept[c] || name == f.Name
				}
				for _, flt := range filters {
					kept[c] = kept[c] || flt.Column == f.Name
				}
			}
			plan, _, err := e.PlanScan("t", filters)
			if err != nil {
				t.Fatal(err)
			}
			var want, got []colfile.Row
			wantStats, wantCost, err := e.Scan("t", plan, filters, func(r colfile.Row) bool {
				restricted := make(colfile.Row, len(r))
				for c := range r {
					if kept[c] {
						restricted[c] = r[c]
					}
				}
				want = append(want, restricted)
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			gotStats, gotCost, err := e.ScanProjected("t", plan, filters, columns, nil, func(r colfile.Row) bool {
				got = append(got, append(colfile.Row(nil), r...))
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if gotStats != wantStats || gotCost != wantCost {
				t.Fatalf("trial %d query %d: stats %+v cost %v, all-column scan %+v cost %v", trial, q, gotStats, gotCost, wantStats, wantCost)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d query %d (columns %v, filters %d): %d projected rows differ from %d restricted rows",
					trial, q, columns, len(filters), len(got), len(want))
			}
			if q == 0 && int(gotStats.RowsMatched) != len(rows) {
				t.Fatalf("count(*): %d rows, loaded %d", gotStats.RowsMatched, len(rows))
			}
		}
	}
	e := newEngine(t, true)
	mkTable(t, e, "t")
	if _, err := e.Insert("t", []colfile.Row{row("u", 1, "Beijing", 1)}); err != nil {
		t.Fatal(err)
	}
	plan, _, _ := e.PlanScan("t", nil)
	if _, _, err := e.ScanProjected("t", plan, nil, []string{"nope"}, nil, func(colfile.Row) bool { return true }); err == nil {
		t.Fatal("unknown projected column accepted")
	}
}

func planPaths(t testing.TB, e *Engine, name string) []string {
	t.Helper()
	plan, _, err := e.PlanScan(name, nil)
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, len(plan.Files))
	for i, f := range plan.Files {
		paths[i] = f.Path
	}
	return paths
}

// Insert writes one file per partition; which file gets which id (and
// so where it lands, and what the cache holds) must follow from the
// rows, not from map iteration order.
func TestMultiPartitionInsertOrderIsDeterministic(t *testing.T) {
	provinces := []string{"Beijing", "Shanghai", "Guangdong", "Sichuan", "Hubei", "Zhejiang", "Jilin", "Hainan"}
	load := func() []string {
		e := newEngine(t, true)
		mkTable(t, e, "t")
		for b := 0; b < 5; b++ {
			var rows []colfile.Row
			for i := 0; i < 64; i++ {
				rows = append(rows, row("u", int64(b*64+i), provinces[(i*5+b)%len(provinces)], 1))
			}
			if _, err := e.Insert("t", rows); err != nil {
				t.Fatal(err)
			}
		}
		return planPaths(t, e, "t")
	}
	want := load()
	if len(want) != 5*len(provinces) {
		t.Fatalf("%d files, want %d", len(want), 5*len(provinces))
	}
	for i := 1; i < len(provinces); i++ {
		if partitionOf(want[i-1]) >= partitionOf(want[i]) {
			t.Fatalf("first insert's files not in partition order: %v", want[:len(provinces)])
		}
	}
	for run := 0; run < 5; run++ {
		if got := load(); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d wrote\n%v\nfirst run wrote\n%v", run, got, want)
		}
	}
}

func scanAll(t testing.TB, e *Engine, name string) map[string]int {
	t.Helper()
	plan, _, err := e.PlanScan(name, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	if _, _, err := e.Scan(name, plan, nil, func(r colfile.Row) bool {
		seen[fmt.Sprint(r)]++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return seen
}

// Two handles on one table (the converter's and the SQL engine's): the
// engine opens its own while the writer's is mid-sequence, the writer
// commits more files, then an Update through the engine rewrites one.
// Numbering the rewrite from the engine handle's stale sequence used to
// reuse a live file's id in the same partition and overwrite it.
func TestSecondHandleDoesNotReuseFileIDs(t *testing.T) {
	e := newEngine(t, true)
	writer, _, err := tableobj.Create(e.clock, e.fs, e.cat, tableobj.TableMeta{
		Name: "t", Path: "/lake/t", Schema: dpiSchema, PartitionColumn: "province",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	write := func(from, to int64) {
		x, err := writer.Begin()
		if err != nil {
			t.Fatal(err)
		}
		var rows []colfile.Row
		for ts := from; ts < to; ts++ {
			r := row(fmt.Sprintf("u%d", ts), ts, "Beijing", 1)
			rows = append(rows, r)
			want[fmt.Sprint(r)]++
		}
		if _, err := x.WriteRows(rows); err != nil {
			t.Fatal(err)
		}
		if _, err := x.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	write(0, 10)
	if got := scanAll(t, e, "t"); len(got) != 10 { // opens the engine's handle here
		t.Fatalf("first scan saw %d rows", len(got))
	}
	for b := int64(1); b < 6; b++ {
		write(b*10, b*10+10)
	}
	n, _, err := e.Update("t", []RangeFilter{{Column: "start_time", Hi: iv(4)}}, func(r colfile.Row) colfile.Row {
		delete(want, fmt.Sprint(r))
		r[3] = colfile.IntValue(99)
		want[fmt.Sprint(r)]++
		return r
	})
	if err != nil || n != 5 {
		t.Fatalf("update: %d rows, %v", n, err)
	}
	if got := scanAll(t, e, "t"); !reflect.DeepEqual(got, want) {
		t.Fatalf("after update through the second handle: %d distinct rows, want %d\ngot  %v\nwant %v", len(got), len(want), got, want)
	}
	paths := planPaths(t, e, "t")
	seen := map[string]bool{}
	for _, p := range paths {
		if seen[p] {
			t.Fatalf("path %s listed twice", p)
		}
		seen[p] = true
	}
}

// Scans (pooled inflaters, manifest decode) against inserts and flushes
// (per-writer compressors, lazily decoded transaction bases) from many
// goroutines; run under -race. Every scan must see whole batches only.
func TestConcurrentScansAndInserts(t *testing.T) {
	e, _, _ := newCachedEngine(t)
	mkTable(t, e, "t")
	const writers, batches, perBatch = 3, 12, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				rows := make([]colfile.Row, perBatch)
				for i := range rows {
					rows[i] = row("u", int64((w*batches+b)*perBatch+i), []string{"Beijing", "Shanghai"}[i%2], int64(w))
				}
				if _, err := e.Insert("t", rows); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				plan, _, err := e.PlanScan("t", nil)
				if err != nil {
					t.Error(err)
					return
				}
				columns := [][]string{nil, {}, {"bytes"}, {"url", "province"}}[r]
				stats, _, err := e.ScanProjected("t", plan, nil, columns, nil, func(colfile.Row) bool { return true })
				if err != nil {
					t.Error(err)
					return
				}
				if stats.RowsMatched%(perBatch/2) != 0 {
					t.Errorf("scan saw %d rows, not a whole number of files", stats.RowsMatched)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if _, err := e.Flush("t"); err != nil {
		t.Fatal(err)
	}
	aggs, _, err := e.AggregatePushdown("t", nil, "", nil, nil, nil)
	if err != nil || len(aggs) != 1 || aggs[0].Count != writers*batches*perBatch {
		t.Fatalf("final count %+v, %v; want %d", aggs, err, writers*batches*perBatch)
	}
}

func benchTable(b testing.TB) (*Engine, Plan) {
	e := newEngine(b, true)
	mkTable(b, e, "t")
	for f := 0; f < 20; f++ {
		rows := make([]colfile.Row, 1000)
		for i := range rows {
			rows[i] = row(fmt.Sprintf("http://site-%d.example/%d", i%7, f*1000+i), int64(f*1000+i), "Beijing", int64(i%13))
		}
		if _, err := e.Insert("t", rows); err != nil {
			b.Fatal(err)
		}
	}
	plan, _, err := e.PlanScan("t", nil)
	if err != nil {
		b.Fatal(err)
	}
	return e, plan
}

// scanProjected scans benchTable's 20,000 rows for a one-column
// aggregate with a range filter on another: two of four columns decoded,
// the high-cardinality url column left alone.
func scanProjected(tb testing.TB, e *Engine, plan Plan) {
	filters := []RangeFilter{{Column: "start_time", Lo: iv(2000)}}
	var sum int64
	if _, _, err := e.ScanProjected("t", plan, filters, []string{"bytes"}, nil, func(r colfile.Row) bool {
		sum += r[3].Int
		return true
	}); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkScanProjected is scanProjected.
func BenchmarkScanProjected(b *testing.B) {
	e, plan := benchTable(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanProjected(b, e, plan)
	}
}

// A projected scan decodes its two columns into typed columns, 8 bytes a
// value, sized once for the largest group: it allocates at most half
// the 85,458 B per scan it did when every value was a 40-byte
// colfile.Value (measured: 19,470 B, 95 allocations). The least of five
// windows of ten scans is kept. Under the race detector sync.Pool drops
// a quarter of its puts, and each dropped inflater is built again, so it
// skips.
func TestScanProjectedBytesCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's pool drops decide the bytes")
	}
	e, plan := benchTable(t)
	least := uint64(1 << 62)
	for w := 0; w < 5; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 10; i++ {
			scanProjected(t, e, plan)
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/10)
	}
	t.Logf("a projected scan allocates %d B", least)
	if ceiling := uint64(85458 / 2); least > ceiling {
		t.Fatalf("a projected scan allocates %d B, ceiling %d", least, ceiling)
	}
}

// BenchmarkScanAllColumns is the same scan with every column decoded,
// the baseline BenchmarkScanProjected is read against.
func BenchmarkScanAllColumns(b *testing.B) {
	e, plan := benchTable(b)
	filters := []RangeFilter{{Column: "start_time", Lo: iv(2000)}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Scan("t", plan, filters, func(colfile.Row) bool { return true }); err != nil {
			b.Fatal(err)
		}
	}
}

// What projection is for: a scan that needs two narrow columns must not
// pay for the wide one. The url column is a distinct string per row, so
// decoding it is one allocation per row; the margin is wide enough for
// the race detector's pool drops.
func TestProjectionSkipsUnreadColumns(t *testing.T) {
	e, plan := benchTable(t)
	filters := []RangeFilter{{Column: "start_time", Lo: iv(2000)}}
	scan := func(filters []RangeFilter, columns []string) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, _, err := e.ScanProjected("t", plan, filters, columns, nil, func(colfile.Row) bool { return true }); err != nil {
				t.Fatal(err)
			}
		})
	}
	all, projected := scan(filters, nil), scan(filters, []string{"bytes"})
	if projected*10 > all {
		t.Fatalf("projected scan allocates %.0f times per scan, all-column scan %.0f: the unread columns are being decoded", projected, all)
	}
	// count(*) with nothing to evaluate reads footers only: no chunk is
	// inflated, so it allocates less than decoding even one column.
	if footers, one := scan(nil, []string{}), scan(nil, []string{"bytes"}); footers >= one {
		t.Fatalf("bare count allocates %.0f times per scan, a one-column scan %.0f: chunks are being decoded", footers, one)
	}
}

// TestFullScanAllocCeiling pins what a full scan of benchTable's 20,000
// rows allocates with every column decoded (measured: 20,239, of which
// 20,000 are the distinct url strings; 41,040 before the zero-copy read
// path and scan-row reuse, 20,628 before the scan decoded into one set
// of column buffers, 20,411 before it parsed every footer into one
// Reader). The ceiling is 0.4 % over the measurement, the least of five
// windows, so a per-row allocation, a fresh column per chunk, a Reader
// per file, or losing colfile's pooled inflaters, fails here first.
func TestFullScanAllocCeiling(t *testing.T) {
	e, plan := benchTable(t)
	allocs := minAllocs(5, func() {
		var n int
		if _, _, err := e.Scan("t", plan, nil, func(colfile.Row) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		if n != 20000 {
			t.Fatalf("scan saw %d rows", n)
		}
	})
	ceiling := 20320.0
	if raceEnabled {
		ceiling += 500 // under the race detector sync.Pool drops a quarter of its puts
	}
	if allocs > ceiling {
		t.Fatalf("a full scan allocates %.0f times, ceiling %.0f", allocs, ceiling)
	}
	t.Logf("full scan of 20000 rows: %.0f allocs", allocs)
}
