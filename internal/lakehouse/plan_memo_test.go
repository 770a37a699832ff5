package lakehouse

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"streamlake/internal/cache"
	"streamlake/internal/colfile"
	"streamlake/internal/tableobj"
)

// referencePlan is the accelerated planner as it was before the
// manifest memo decoded lazily: every plan decodes every file of the
// snapshot and sends each through filePrune. It folds the snapshot with
// the same reads, cache Gets and Puts as PlanScan, over a memo of its
// own, so an engine planned by it stays in step, charge for charge and
// cache state for cache state, with a twin planned by PlanScan.
func referencePlan(t *testing.T, e *Engine, name string, filters []RangeFilter) (Plan, time.Duration) {
	t.Helper()
	st, err := e.state(name)
	if err != nil {
		t.Fatal(err)
	}
	snap, cost := referenceSnapshot(t, e, st)
	files := append(append([]tableobj.DataFile(nil), snap.Files...), st.pendingAdds...)
	plan := Plan{TotalFiles: len(files)}
	for _, f := range files {
		plan.admit(st.tbl.Schema(), f, filters)
	}
	plan.MetadataBytes = int64(len(plan.Files)) * fileMetaBytes
	return plan, cost
}

// referenceMemos is the manifest referencePlan last folded per table
// state: a re-created table starts without one.
var referenceMemos = map[*tableState]*tableobj.Manifest{}

func referenceSnapshot(t *testing.T, e *Engine, st *tableState) (tableobj.Snapshot, time.Duration) {
	t.Helper()
	meta := st.tbl.Meta()
	ptr, err := e.cat.SnapshotPointer(meta.Name)
	if err != nil {
		t.Fatal(err)
	}
	read := func(path string) ([]byte, time.Duration, error) {
		key := manifestKey(meta.Name, path)
		if e.rcache == nil {
			return e.fs.Read(path)
		}
		if blob, ccost, ok := e.rcache.Get(key); ok {
			return blob, ccost, nil
		}
		blob, rc, err := e.fs.Read(path)
		if err == nil {
			e.rcache.Put(key, blob)
		}
		return blob, rc, err
	}
	m, cost, err := tableobj.LoadManifest(meta.Path, ptr, referenceMemos[st], read)
	if err != nil {
		t.Fatal(err)
	}
	referenceMemos[st] = m
	snap := m.Snapshot
	for _, ent := range m.Entries {
		f, err := ent.File()
		if err != nil {
			t.Fatal(err)
		}
		snap.Files = append(snap.Files, f)
	}
	return snap, cost
}

// oracleFile draws the statistics of a data file that was never
// written: random per-column ranges over dpiSchema. Files staged with
// Txn.AddFile are planned from these stats alone.
func oracleFile(rng *rand.Rand, id int) tableobj.DataFile {
	f := tableobj.DataFile{Path: fmt.Sprintf("/lake/t/data/synthetic/%06d.col", id), Partition: "synthetic",
		Rows: int64(rng.Intn(6)), Bytes: 100}
	word := func(i int) colfile.Value { return colfile.StringValue(fmt.Sprintf("w%02d", i)) }
	num := func(i int) colfile.Value { return colfile.IntValue(int64(i)) }
	cols := []func(int) colfile.Value{word, num, word, num}
	for _, v := range cols {
		lo := rng.Intn(40)
		f.Min = append(f.Min, v(lo))
		f.Max = append(f.Max, v(lo+rng.Intn(40)))
	}
	return f
}

// oracleFilters draws two or three filters on distinct columns: ranges,
// half-open ranges and equality probes.
func oracleFilters(rng *rand.Rand) []RangeFilter {
	names := []string{"url", "start_time", "province", "bytes"}
	value := func(c, i int) *colfile.Value {
		if c%2 == 0 {
			return sv(fmt.Sprintf("w%02d", i))
		}
		return iv(int64(i))
	}
	var out []RangeFilter
	for _, c := range rng.Perm(4)[:2+rng.Intn(2)] {
		flt := RangeFilter{Column: names[c]}
		lo := rng.Intn(80)
		switch rng.Intn(4) {
		case 0:
			flt.Lo, flt.Hi = value(c, lo), value(c, lo)
		case 1:
			flt.Lo = value(c, lo)
		case 2:
			flt.Hi = value(c, lo)
		default:
			flt.Lo, flt.Hi = value(c, lo), value(c, lo+rng.Intn(20))
		}
		out = append(out, flt)
	}
	return out
}

// The manifest memo changes how a plan is computed, never what it says:
// over random filters, with and without the read cache, PlanScan and
// the decode-everything reference agree on every file, every prune, the
// metadata bytes and the charged cost. A file pre-rejected on its
// encoded ranges must be one filePrune would prune, so the fixed case
// below, whose first filter overlaps the file's range and whose second
// falls outside it, must stay a prune.
func TestPlanMatchesDecodeEverythingOracle(t *testing.T) {
	for _, cached := range []bool{false, true} {
		t.Run(fmt.Sprintf("cache=%v", cached), func(t *testing.T) {
			var engines [2]*Engine
			for i := range engines {
				engines[i] = newEngine(t, true)
				if cached {
					engines[i].SetCache(cache.New(cache.Config{DRAMBytes: 8 << 10, SCMBytes: 32 << 10}))
				}
				mkTable(t, engines[i], "t")
			}
			memo, ref := engines[0], engines[1]
			rng := rand.New(rand.NewSource(1))
			commit := func(files ...tableobj.DataFile) {
				for _, e := range engines {
					tbl, _ := e.Table("t")
					x, err := tbl.Begin()
					if err != nil {
						t.Fatal(err)
					}
					for _, f := range files {
						x.AddFile(f)
					}
					if _, err := x.Commit(); err != nil {
						t.Fatal(err)
					}
				}
			}
			// start_time [20, 25] overlaps the file's range; bytes
			// [90, 99] misses it.
			island := tableobj.DataFile{Path: "/lake/t/data/synthetic/island.col", Rows: 4,
				Min: []colfile.Value{colfile.StringValue("a"), colfile.IntValue(0), colfile.StringValue("a"), colfile.IntValue(0)},
				Max: []colfile.Value{colfile.StringValue("z"), colfile.IntValue(39), colfile.StringValue("z"), colfile.IntValue(9)}}
			fixed := []RangeFilter{{Column: "start_time", Lo: iv(20), Hi: iv(25)}, {Column: "bytes", Lo: iv(90), Hi: iv(99)}}
			var plans, admitted, pruned int
			check := func(filters []RangeFilter) Plan {
				t.Helper()
				got, gotCost, err := memo.PlanScan("t", filters)
				if err != nil {
					t.Fatal(err)
				}
				want, wantCost := referencePlan(t, ref, "t", filters)
				if gotCost != wantCost || !reflect.DeepEqual(got, want) {
					t.Fatalf("plan %d, filters %+v:\nmemo      %+v (cost %v)\nreference %+v (cost %v)",
						plans, filters, got, gotCost, want, wantCost)
				}
				plans++
				admitted += len(got.Files)
				pruned += got.SkippedFiles
				return got
			}
			commit(island)
			if p := check(fixed); p.SkippedFiles != 1 {
				t.Fatalf("the island file is not pruned: %+v", p)
			}
			for round := 0; round < 30; round++ {
				switch rng.Intn(3) {
				case 0:
					var rows []colfile.Row
					for i := rng.Intn(12) + 1; i > 0; i-- {
						rows = append(rows, row(fmt.Sprintf("w%02d", rng.Intn(80)), int64(rng.Intn(80)),
							fmt.Sprintf("w%02d", rng.Intn(3)), int64(rng.Intn(80))))
					}
					for _, e := range engines {
						if _, err := e.Insert("t", rows); err != nil {
							t.Fatal(err)
						}
					}
				case 1:
					var files []tableobj.DataFile
					for i := rng.Intn(4); i >= 0; i-- {
						files = append(files, oracleFile(rng, round*10+i))
					}
					commit(files...)
				}
				for q := 0; q < 4; q++ {
					check(oracleFilters(rng))
				}
				check(fixed)
			}
			t.Logf("%d plans: %d files admitted, %d pruned", plans, admitted, pruned)
			if admitted == 0 || pruned == 0 {
				t.Fatal("the draws leave a verdict unexercised")
			}
		})
	}
}

// Each plan sees the snapshot the last operation left, whichever way
// the pointer moved: a flush, a delete, an update, a commit through the
// Table handle, a soft drop and restore, and a hard drop and re-create
// whose snapshot ids restart at 1 and climb back to the id the dropped
// table was last planned at. Mutating a planned DataFile's statistics
// changes nothing for the next plan.
func TestPlanSeesEverySnapshot(t *testing.T) {
	for _, cached := range []bool{false, true} {
		e := newEngine(t, true)
		if cached {
			e.SetCache(cache.New(cache.Config{DRAMBytes: 1 << 20, SCMBytes: 4 << 20}))
		}
		mkTable(t, e, "t")
		expect := func(step string) Plan {
			t.Helper()
			got, _, err := e.PlanScan("t", nil)
			if err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			want, _ := referencePlan(t, e, "t", nil)
			if !reflect.DeepEqual(got.Files, want.Files) || got.TotalFiles != want.TotalFiles {
				t.Fatalf("cache=%v, after %s: plan holds %d files, the snapshot %d", cached, step, len(got.Files), len(want.Files))
			}
			return got
		}
		insert := func(base int64) {
			t.Helper()
			for i := int64(0); i < 3; i++ {
				if _, err := e.Insert("t", []colfile.Row{row("u", base+i, []string{"bj", "sh"}[i%2], i)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		insert(0)
		expect("insert")
		if _, err := e.Flush("t"); err != nil {
			t.Fatal(err)
		}
		expect("flush")
		if _, _, err := e.Delete("t", []RangeFilter{{Column: "start_time", Lo: iv(0), Hi: iv(0)}}); err != nil {
			t.Fatal(err)
		}
		expect("delete")
		if _, _, err := e.Update("t", []RangeFilter{{Column: "start_time", Lo: iv(1), Hi: iv(1)}},
			func(r colfile.Row) colfile.Row { r[1] = colfile.IntValue(100); return r }); err != nil {
			t.Fatal(err)
		}
		expect("update")
		tbl, _ := e.Table("t")
		x, err := tbl.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := x.WriteRows([]colfile.Row{row("c", 50, "gz", 5)}); err != nil {
			t.Fatal(err)
		}
		if _, err := x.Commit(); err != nil {
			t.Fatal(err)
		}
		expect("a commit through the Table handle")
		if _, err := e.DropSoft("t"); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Restore("t"); err != nil {
			t.Fatal(err)
		}
		insert(10)
		e.Flush("t")
		last := expect("soft drop and restore")
		dropped, _ := e.cat.SnapshotPointer("t")
		if _, err := e.DropHard("t"); err != nil {
			t.Fatal(err)
		}
		mkTable(t, e, "t")
		insert(200)
		e.Flush("t")
		for {
			ptr, _ := e.cat.SnapshotPointer("t")
			if ptr == dropped {
				break
			}
			if ptr > dropped {
				t.Fatalf("re-created table passed id %d", dropped)
			}
			tbl, _ := e.Table("t")
			x, _ := tbl.Begin()
			if _, err := x.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if p := expect("hard drop and re-create"); reflect.DeepEqual(p.Files, last.Files) {
			t.Fatal("the re-created table plans the dropped table's files")
		}
		p := expect("mutation")
		was := p.Files[0].Min[1]
		p.Files[0].Min[1] = colfile.IntValue(-1)
		if after := expect("mutating a plan"); after.Files[0].Min[1] != was {
			t.Fatalf("a caller's write to a plan reached the next plan: Min %v, was %v", after.Files[0].Min[1], was)
		}
	}
}

// Planning parses stats only for the files it admits. With one file's
// stats damaged past its first columns in the cached snapshot file, a
// filter that range-rejects the file on an intact column plans without
// noticing; a plan that admits it fails and drops the memo and the
// cached file, so the next plan decodes the intact copy fs holds.
func TestPlanCorruptCachedStats(t *testing.T) {
	e := newEngine(t, true)
	e.SetCache(cache.New(cache.Config{DRAMBytes: 1 << 20, SCMBytes: 4 << 20}))
	mkTable(t, e, "t")
	r := row("u", 5, "bj", 7)
	if _, err := e.Insert("t", []colfile.Row{r}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Flush("t"); err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.Table("t")
	// The file's legacy stats: a column count, then each column's min
	// and max, both the row's value. Give the last value a bad type byte
	// in the cached copy of the metadata file planning reads them from:
	// the checkpoint the first commit wrote.
	stats := binary.AppendUvarint(nil, uint64(len(r)))
	for _, v := range r {
		stats = colfile.AppendValue(colfile.AppendValue(stats, v), v)
	}
	paths, _ := e.fs.List(tbl.Meta().Path + "/metadata/checkpoints/")
	if len(paths) != 1 {
		t.Fatalf("metadata checkpoints: %v", paths)
	}
	blob, _, err := e.fs.Read(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(blob, stats)
	if at < 0 {
		t.Fatal("stats not found in the checkpoint")
	}
	bad := append([]byte(nil), blob...)
	bad[at+len(stats)-len(colfile.AppendValue(nil, r[3]))] = 0xEE
	e.rcache.Put(manifestKey("t", paths[0]), bad)

	p, _, err := e.PlanScan("t", []RangeFilter{{Column: "start_time", Lo: iv(100)}})
	if err != nil || p.SkippedFiles != 1 {
		t.Fatalf("a plan rejecting the file on an intact column: %+v, %v", p, err)
	}
	if _, _, err := e.PlanScan("t", nil); err == nil {
		t.Fatal("a plan admitting the file with damaged stats succeeded")
	}
	p, _, err = e.PlanScan("t", nil)
	if err != nil || len(p.Files) != 1 || !reflect.DeepEqual(p.Files[0].Max, []colfile.Value(r)) {
		t.Fatalf("the plan after the failure did not reread the intact file: %+v, %v", p, err)
	}
}

// gateTable is a table of 700 small files, 7 partitions by 100 inserts
// with start_time rising by insert, planned through the read cache as
// warehouse plans its lineitem table.
func gateTable(tb testing.TB) *Engine {
	tb.Helper()
	e, _, _ := newCachedEngine(tb)
	mkTable(tb, e, "t")
	provinces := []string{"bj", "sh", "gz", "sz", "cd", "wh", "xa"}
	for b := 0; b < 100; b++ {
		var rows []colfile.Row
		for i, p := range provinces {
			for k := 0; k < 2; k++ {
				rows = append(rows, row(fmt.Sprintf("http://%s/%d", p, b), int64(b*10+i), p, int64(k)))
			}
		}
		if _, err := e.Insert("t", rows); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := e.Flush("t"); err != nil {
		tb.Fatal(err)
	}
	return e
}

// gateFilter admits 13 of gateTable's 100 inserts: 91 of 700 files, the
// 13 % warehouse's selective queries keep.
var gateFilter = []RangeFilter{{Column: "start_time", Lo: iv(500), Hi: iv(629)}}

// TestWarmPlanAllocCeiling pins what a repeated selective plan over
// gateTable allocates: five per admitted file (its value slice and four
// string bounds), not the whole manifest's decode (measured: 467
// allocations, the least of five windows; 6,330 when every plan decoded
// the whole snapshot).
func TestWarmPlanAllocCeiling(t *testing.T) {
	e := gateTable(t)
	var plan Plan
	allocs := minAllocs(10, func() {
		var err error
		if plan, _, err = e.PlanScan("t", gateFilter); err != nil {
			t.Fatal(err)
		}
	})
	if len(plan.Files) != 91 || plan.TotalFiles != 700 {
		t.Fatalf("plan admits %d of %d files, want 91 of 700", len(plan.Files), plan.TotalFiles)
	}
	const ceiling = 500.0
	if allocs > ceiling {
		t.Fatalf("a warm plan admitting %d of %d files allocates %.0f times, ceiling %.0f", len(plan.Files), plan.TotalFiles, allocs, ceiling)
	}
	t.Logf("warm plan, %d of %d files admitted: %.0f allocs", len(plan.Files), plan.TotalFiles, allocs)
}

// BenchmarkPlanScan is a warm selective plan over gateTable: the
// manifest is already memoised.
func BenchmarkPlanScan(b *testing.B) {
	e := gateTable(b)
	if _, _, err := e.PlanScan("t", gateFilter); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.PlanScan("t", gateFilter); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWarmQueryAllocsFlatInFiles: a warm count(*) through Query checks
// each admitted entry's statistics without decoding them and scans the
// entries' paths, so admitting 700 of gateTable's files costs at most
// a small constant more than admitting 91, besides each file footer's
// string bounds (url and province, min and max: four allocations per
// file read, which colfile copies out for GroupStats's callers).
// Measured: 392 and 2,827 allocations, 4.0 per extra file; 9.0 when
// planning decoded every admitted file's statistics.
func TestWarmQueryAllocsFlatInFiles(t *testing.T) {
	e := gateTable(t)
	count := func(filters []RangeFilter, files int) float64 {
		return minAllocs(10, func() {
			qs, err := e.Query("t", filters, filters, []string{}, nil, nil, func(colfile.Row) bool { return true })
			if err != nil || len(qs.Plan.Files) != files || qs.Scan.RowsScanned != int64(2*files) {
				t.Fatalf("count(*) admitting %d files: %+v, %v", files, qs, err)
			}
		})
	}
	some, all := count(gateFilter, 91), count(nil, 700)
	const footerStrings, slack = 4, 16
	if all > some+footerStrings*(700-91)+slack {
		t.Fatalf("a warm count(*) allocates %.0f times admitting 700 files and %.0f admitting 91: an admitted file costs more than its footer's %d strings", all, some, footerStrings)
	}
	t.Logf("warm count(*): %.0f allocs admitting 91 files, %.0f admitting 700", some, all)
}
