package lakehouse

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"streamlake/internal/colfile"
	"streamlake/internal/plog"
	"streamlake/internal/pool"
	"streamlake/internal/sim"
	"streamlake/internal/tableobj"
)

var dpiSchema = colfile.MustSchema("url:string", "start_time:int64", "province:string", "bytes:int64")

func row(url string, ts int64, prov string, b int64) colfile.Row {
	return colfile.Row{colfile.StringValue(url), colfile.IntValue(ts), colfile.StringValue(prov), colfile.IntValue(b)}
}

func newEngine(t testing.TB, accel bool) *Engine {
	t.Helper()
	clock := sim.NewClock()
	p := pool.New("lh", clock, sim.NVMeSSD, 8, 4<<20)
	fs := tableobj.NewFileStore(plog.NewManager(p, 8<<20))
	cat := tableobj.NewCatalog(clock)
	return New(clock, fs, cat, Options{Acceleration: accel, FlushEvery: 8})
}

func mkTable(t testing.TB, e *Engine, name string) {
	t.Helper()
	if _, err := e.CreateTable(tableobj.TableMeta{
		Name: name, Path: "/lake/" + name, Schema: dpiSchema, PartitionColumn: "province",
	}); err != nil {
		t.Fatal(err)
	}
}

func iv(v int64) *colfile.Value  { x := colfile.IntValue(v); return &x }
func sv(s string) *colfile.Value { x := colfile.StringValue(s); return &x }

func TestInsertAndPlanScanAccelerated(t *testing.T) {
	e := newEngine(t, true)
	mkTable(t, e, "t")
	cost, err := e.Insert("t", []colfile.Row{
		row("http://a", 100, "Beijing", 10),
		row("http://b", 200, "Shanghai", 20),
	})
	if err != nil || cost <= 0 {
		t.Fatal(err)
	}
	// Pending in write cache, not yet flushed (FlushEvery=8).
	if n := pending(e, "t"); n != 2 {
		t.Fatalf("pending: %d", n)
	}
	// Planning sees cached (unflushed) files.
	plan, _, err := e.PlanScan("t", nil)
	if err != nil || len(plan.Files) != 2 {
		t.Fatalf("plan: %+v %v", plan, err)
	}
	// Filter prunes by file stats.
	plan, _, err = e.PlanScan("t", []RangeFilter{{Column: "start_time", Lo: iv(150), Hi: iv(250)}})
	if err != nil || len(plan.Files) != 1 || plan.SkippedFiles != 1 {
		t.Fatalf("filtered plan: %+v %v", plan, err)
	}
}

func TestMetaFresherFlushOnCapacity(t *testing.T) {
	e := newEngine(t, true)
	mkTable(t, e, "t")
	// 8 single-partition inserts hit FlushEvery=8.
	for i := 0; i < 8; i++ {
		if _, err := e.Insert("t", []colfile.Row{row(fmt.Sprintf("u%d", i), int64(i), "Beijing", 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := pending(e, "t"); n != 0 {
		t.Fatalf("MetaFresher did not flush: %d pending", n)
	}
	// The persistent snapshot now carries all files.
	tbl, _ := e.Table("t")
	cur, _, _ := tbl.Current()
	if cur.RowCount != 8 || len(cur.Files) != 8 {
		t.Fatalf("snapshot after flush: %+v", cur)
	}
}

func TestScanWithRowGroupSkipping(t *testing.T) {
	e := newEngine(t, true)
	mkTable(t, e, "t")
	var rows []colfile.Row
	for i := 0; i < 20000; i++ {
		rows = append(rows, row(fmt.Sprintf("u%d", i), int64(i), "Beijing", int64(i%7)))
	}
	e.Insert("t", rows)
	e.Flush("t")
	plan, _, _ := e.PlanScan("t", nil)
	filters := []RangeFilter{{Column: "start_time", Lo: iv(100), Hi: iv(200)}}
	var got int64
	stats, cost, err := e.Scan("t", plan, filters, func(r colfile.Row) bool { got++; return true })
	if err != nil || cost <= 0 {
		t.Fatal(err)
	}
	if got != 101 || stats.RowsMatched != 101 {
		t.Fatalf("matched %d rows", got)
	}
	// 20000 rows in 8192-row groups: the filter touches group 0 only.
	if stats.SkippedGroups == 0 || stats.SkippedBytes == 0 {
		t.Fatalf("no row groups skipped: %+v", stats)
	}
}

func TestAcceleratedPlanningCheaperAndLighter(t *testing.T) {
	// The Figure 15 comparison in miniature: same data, same query, with
	// and without metadata acceleration.
	partitions := 40
	build := func(accel bool) (*Engine, Plan, time.Duration) {
		e := newEngine(t, accel)
		mkTable(t, e, "t")
		for p := 0; p < partitions; p++ {
			var rows []colfile.Row
			for i := 0; i < 5; i++ {
				rows = append(rows, row(fmt.Sprintf("u%d", i), int64(p*100+i), fmt.Sprintf("P%02d", p), 1))
			}
			if _, err := e.Insert("t", rows); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Flush("t"); err != nil {
			t.Fatal(err)
		}
		plan, cost, err := e.PlanScan("t", []RangeFilter{{Column: "start_time", Lo: iv(150), Hi: iv(250)}})
		if err != nil {
			t.Fatal(err)
		}
		return e, plan, cost
	}
	_, planA, costA := build(true)
	_, planB, costB := build(false)
	if len(planA.Files) != len(planB.Files) {
		t.Fatalf("plans disagree: %d vs %d files", len(planA.Files), len(planB.Files))
	}
	if costA >= costB {
		t.Fatalf("accelerated planning %v not cheaper than file-based %v", costA, costB)
	}
	if planA.MetadataBytes >= planB.MetadataBytes {
		t.Fatalf("accelerated planning loaded %d bytes >= baseline %d", planA.MetadataBytes, planB.MetadataBytes)
	}
}

func TestAggregatePushdownDAUQuery(t *testing.T) {
	// The Figure 13 query: COUNT(*) grouped by province with URL and
	// time filters, computed at the storage side.
	e := newEngine(t, true)
	mkTable(t, e, "tb_dpi_log_hours")
	var rows []colfile.Row
	for i := 0; i < 1000; i++ {
		prov := []string{"Beijing", "Shanghai", "Guangdong"}[i%3]
		url := "http://streamlake_fin_app.com"
		if i%5 == 0 {
			url = "http://other.example"
		}
		rows = append(rows, row(url, int64(1656806400+i), prov, 1))
	}
	e.Insert("tb_dpi_log_hours", rows)
	e.Flush("tb_dpi_log_hours")
	results, qs, err := e.AggregatePushdown("tb_dpi_log_hours",
		[]RangeFilter{
			{Column: "url", Lo: sv("http://streamlake_fin_app.com"), Hi: sv("http://streamlake_fin_app.com")},
			{Column: "start_time", Lo: iv(1656806400), Hi: iv(1656806400 + 999)},
		}, "province", nil, nil, nil)
	if err != nil || qs.PlanCost+qs.ScanCost <= 0 {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("groups: %+v", results)
	}
	var total int64
	for _, r := range results {
		total += r.Count
	}
	if total != 800 { // 1000 minus the 200 "other" URLs
		t.Fatalf("DAU total: %d", total)
	}
	// Groups come back sorted.
	if results[0].Group != "Beijing" || results[2].Group != "Shanghai" {
		t.Fatalf("group order: %+v", results)
	}
	// Unknown columns are rejected.
	if _, _, err := e.AggregatePushdown("tb_dpi_log_hours", nil, "zz", nil, nil, nil); err == nil {
		t.Fatal("unknown group column accepted")
	}
	if _, _, err := e.AggregatePushdown("tb_dpi_log_hours", nil, "", []string{"zz"}, nil, nil); err == nil {
		t.Fatal("unknown sum column accepted")
	}
}

func TestAggregateSum(t *testing.T) {
	e := newEngine(t, true)
	mkTable(t, e, "t")
	e.Insert("t", []colfile.Row{
		row("a", 1, "B", 10),
		row("b", 2, "B", 20),
		row("c", 3, "S", 5),
	})
	results, _, err := e.AggregatePushdown("t", nil, "province", []string{"bytes", "start_time"}, nil, nil)
	if err != nil || len(results) != 2 {
		t.Fatalf("%+v %v", results, err)
	}
	if results[0].Group != "B" || !slices.Equal(results[0].Sums, []float64{30, 3}) || !slices.Equal(results[1].Sums, []float64{5, 3}) {
		t.Fatalf("sums: %+v", results)
	}
	// keep drops a row the ranges admit before it is folded.
	results, _, err = e.AggregatePushdown("t", nil, "province", []string{"bytes"}, func(r colfile.Row) bool { return r[3].Int != 10 }, nil)
	if err != nil || len(results) != 2 || results[0].Count != 1 || results[0].Sums[0] != 20 {
		t.Fatalf("kept: %+v %v", results, err)
	}
}

func TestDeleteMetadataOnlyFastPath(t *testing.T) {
	e := newEngine(t, true)
	mkTable(t, e, "t")
	// Two partitions; delete everything in one of them.
	e.Insert("t", []colfile.Row{row("a", 1, "Beijing", 1), row("b", 2, "Beijing", 1)})
	e.Insert("t", []colfile.Row{row("c", 3, "Shanghai", 1)})
	if _, err := e.Flush("t"); err != nil {
		t.Fatal(err)
	}
	filesBefore := e.mustFS(t).Count()
	n, _, err := e.Delete("t", []RangeFilter{{Column: "province", Lo: sv("Beijing"), Hi: sv("Beijing")}})
	if err != nil || n != 2 {
		t.Fatalf("delete: %d %v", n, err)
	}
	// Fast path: no new data file was written (metadata-only drop).
	// The data file itself remains until snapshot expiration.
	if e.mustFS(t).Count() > filesBefore+2 { // +commit +snapshot only
		t.Fatalf("delete rewrote data files: %d -> %d", filesBefore, e.mustFS(t).Count())
	}
	plan, _, _ := e.PlanScan("t", nil)
	var rows int64
	for _, f := range plan.Files {
		rows += f.Rows
	}
	if rows != 1 {
		t.Fatalf("rows after delete: %d", rows)
	}
}

func (e *Engine) mustFS(t testing.TB) *tableobj.FileStore { t.Helper(); return e.fs }

func TestDeletePartialRewrite(t *testing.T) {
	e := newEngine(t, true)
	mkTable(t, e, "t")
	var rows []colfile.Row
	for i := 0; i < 100; i++ {
		rows = append(rows, row(fmt.Sprintf("u%d", i), int64(i), "Beijing", 1))
	}
	e.Insert("t", rows)
	n, _, err := e.Delete("t", []RangeFilter{{Column: "start_time", Lo: iv(10), Hi: iv(19)}})
	if err != nil || n != 10 {
		t.Fatalf("delete: %d %v", n, err)
	}
	var remaining int64
	plan, _, _ := e.PlanScan("t", nil)
	e.Scan("t", plan, nil, func(r colfile.Row) bool { remaining++; return true })
	if remaining != 90 {
		t.Fatalf("remaining: %d", remaining)
	}
	// Deleted range really gone.
	var hits int64
	e.Scan("t", plan, []RangeFilter{{Column: "start_time", Lo: iv(10), Hi: iv(19)}}, func(r colfile.Row) bool { hits++; return true })
	if hits != 0 {
		t.Fatalf("deleted rows still present: %d", hits)
	}
}

func TestUpdate(t *testing.T) {
	e := newEngine(t, true)
	mkTable(t, e, "t")
	e.Insert("t", []colfile.Row{
		row("http://a", 1, "Beijing", 10),
		row("http://b", 2, "Beijing", 20),
	})
	urlIdx := dpiSchema.FieldIndex("url")
	n, _, err := e.Update("t",
		[]RangeFilter{{Column: "start_time", Lo: iv(2), Hi: iv(2)}},
		func(r colfile.Row) colfile.Row {
			r[urlIdx] = colfile.StringValue("http://masked")
			return r
		})
	if err != nil || n != 1 {
		t.Fatalf("update: %d %v", n, err)
	}
	plan, _, _ := e.PlanScan("t", nil)
	seen := map[string]bool{}
	e.Scan("t", plan, nil, func(r colfile.Row) bool { seen[r[urlIdx].Str] = true; return true })
	if !seen["http://masked"] || !seen["http://a"] || seen["http://b"] {
		t.Fatalf("post-update urls: %v", seen)
	}
	// Updates that break the schema are rejected.
	if _, _, err := e.Update("t", nil, func(r colfile.Row) colfile.Row {
		return colfile.Row{colfile.IntValue(1)}
	}); err == nil {
		t.Fatal("schema-breaking update accepted")
	}
}

func TestDropHardClearsCacheFirst(t *testing.T) {
	e := newEngine(t, true)
	mkTable(t, e, "t")
	e.Insert("t", []colfile.Row{row("a", 1, "B", 1)}) // sits in write cache
	if pending(e, "t") == 0 {
		t.Fatal("test premise: cache should have pending records")
	}
	if _, err := e.DropHard("t"); err != nil {
		t.Fatal(err)
	}
	if pending(e, "t") != 0 {
		t.Fatal("cache not cleared")
	}
	if e.mustFS(t).Count() != 0 {
		t.Fatalf("files left: %d", e.mustFS(t).Count())
	}
	if _, err := e.Insert("t", []colfile.Row{row("a", 1, "B", 1)}); err == nil {
		t.Fatal("insert into hard-dropped table accepted")
	}
}

func TestDropSoftAndRestore(t *testing.T) {
	e := newEngine(t, true)
	mkTable(t, e, "t")
	e.Insert("t", []colfile.Row{row("a", 1, "B", 1)})
	if _, err := e.DropSoft("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Restore("t"); err != nil {
		t.Fatal(err)
	}
	plan, _, err := e.PlanScan("t", nil)
	if err != nil || len(plan.Files) != 1 {
		t.Fatalf("after restore: %+v %v", plan, err)
	}
}

func TestInsertValidatesRows(t *testing.T) {
	e := newEngine(t, true)
	mkTable(t, e, "t")
	if _, err := e.Insert("t", nil); err == nil {
		t.Fatal("empty insert accepted")
	}
	if _, err := e.Insert("t", []colfile.Row{{colfile.IntValue(1)}}); err == nil {
		t.Fatal("schema-violating insert accepted")
	}
	if _, err := e.Insert("ghost", []colfile.Row{row("a", 1, "B", 1)}); err == nil {
		t.Fatal("insert into unknown table accepted")
	}
}

// An update that moves rows to another partition writes them to that
// partition's directory: every file holds only rows of the partition it
// is filed under, so compacting either partition sees all its rows.
func TestUpdateMovesRowsAcrossPartitions(t *testing.T) {
	e := newEngine(t, true)
	mkTable(t, e, "t")
	var rows []colfile.Row
	for i := int64(0); i < 10; i++ {
		rows = append(rows, row("http://a", i, "Beijing", i))
	}
	if _, err := e.Insert("t", rows); err != nil {
		t.Fatal(err)
	}
	prov := dpiSchema.FieldIndex("province")
	n, _, err := e.Update("t", []RangeFilter{{Column: "start_time", Lo: iv(5)}}, func(r colfile.Row) colfile.Row {
		r[prov] = colfile.StringValue("Shanghai")
		return r
	})
	if err != nil || n != 5 {
		t.Fatalf("update: %d %v", n, err)
	}
	tbl, _ := e.Table("t")
	snap, _, err := tbl.Current()
	if err != nil {
		t.Fatal(err)
	}
	perPartition := map[string]int64{}
	for _, f := range snap.Files {
		r, _, err := tbl.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var dec colfile.RowDecoder
		rows, err := dec.AppendRows(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			if p := tbl.PartitionFor(row); p != f.Partition {
				t.Fatalf("a %s row in %s", p, f.Path)
			}
		}
		perPartition[f.Partition] += f.Rows
	}
	if perPartition["province=Beijing"] != 5 || perPartition["province=Shanghai"] != 5 {
		t.Fatalf("rows per partition after the update: %v", perPartition)
	}
}

// Update decodes each file into the storage the last one used: its
// allocation grows by what a file's rewrite costs, not by a file's
// decoded rows too. A decoded file here is 2,000 rows of 40-byte cells,
// 320,000 bytes; an update that kept them all would grow by that per file.
// Measured: 10 KB more per file, and 555 KB for four files (811 KB when
// each group decoded into 40-byte Values before its rows were built).
// Under the race detector sync.Pool drops a quarter of its puts, each
// dropped inflater built again (37–56 KB a file, 766–955 KB for four),
// so there only the half-a-file bound holds.
func TestUpdateRecyclesDecodeStorage(t *testing.T) {
	const rowsPerFile = 2000
	schema := colfile.MustSchema("k:int64", "a:int64", "b:int64", "c:int64")
	updateBytes := func(files int) int64 {
		e := newEngine(t, false)
		if _, err := e.CreateTable(tableobj.TableMeta{Name: "t", Path: "/lake/t", Schema: schema}); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < files; f++ {
			rows := make([]colfile.Row, rowsPerFile)
			for i := range rows {
				k := int64(f*rowsPerFile + i)
				rows[i] = colfile.Row{colfile.IntValue(k), colfile.IntValue(k % 7), colfile.IntValue(k % 11), colfile.IntValue(k % 13)}
			}
			if _, err := e.Insert("t", rows); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n, _, err := e.Update("t", nil, func(r colfile.Row) colfile.Row {
			r[1] = colfile.IntValue(r[1].Int + 1)
			return r
		})
		runtime.ReadMemStats(&after)
		if err != nil || n != int64(files*rowsPerFile) {
			t.Fatalf("update of %d files: %d rows, %v", files, n, err)
		}
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	four, sixteen := updateBytes(4), updateBytes(16)
	perFile := (sixteen - four) / 12
	decoded := int64(rowsPerFile * schema.NumFields() * 40)
	t.Logf("update of 4 files: %d KB; of 16: %d KB; %d KB more per file", four>>10, sixteen>>10, perFile>>10)
	perFileCeiling, fourCeiling := int64(16<<10), int64(640<<10)
	if raceEnabled {
		perFileCeiling, fourCeiling = decoded/2, math.MaxInt64
	}
	if perFile > perFileCeiling || four > fourCeiling {
		t.Fatalf("each further file costs %d KB (ceiling %d KB; a file's decoded rows are %d KB), four files %d KB (ceiling %d KB)",
			perFile>>10, perFileCeiling>>10, decoded>>10, four>>10, fourCeiling>>10)
	}
}
