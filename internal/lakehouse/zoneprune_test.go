package lakehouse

import (
	"fmt"
	"testing"

	"streamlake/internal/colfile"
	"streamlake/internal/plog"
	"streamlake/internal/pool"
	"streamlake/internal/sim"
	"streamlake/internal/tableobj"
)

// filePrune unit coverage: zone maps prune files whose overall range
// overlaps a predicate no row group can satisfy; blooms prune equality
// probes the file provably never stored.
func TestFilePruneReasons(t *testing.T) {
	schema := colfile.MustSchema("k:int64")
	zf := func(lo, hi int64) tableobj.ZoneMap {
		return tableobj.ZoneMap{
			Min: []colfile.Value{colfile.IntValue(lo)},
			Max: []colfile.Value{colfile.IntValue(hi)},
		}
	}
	bloom := tableobj.NewBloom(4)
	for _, v := range []int64{1, 5, 105, 109} {
		bloom.Add(colfile.IntValue(v))
	}
	f := tableobj.DataFile{
		Rows: 8,
		Min:  []colfile.Value{colfile.IntValue(1)},
		Max:  []colfile.Value{colfile.IntValue(109)},
		// Two islands: 1..9 and 100..109. The file range covers 1..109.
		Zones:  []tableobj.ZoneMap{zf(1, 9), zf(100, 109)},
		Blooms: []*tableobj.Bloom{bloom},
	}
	cases := []struct {
		lo, hi int64
		want   pruneReason
	}{
		{5, 7, pruneNone},        // inside the first island
		{200, 300, pruneRange},   // outside the file range entirely
		{50, 60, pruneZone},      // between the islands: file range overlaps, no zone does
		{7, 7, pruneBloom},       // equality probe on a value never stored
		{105, 105, pruneNone},    // equality hit on a stored value
		{9999, 9999, pruneRange}, // equality outside the range
	}
	for _, c := range cases {
		got := filePrune(schema, f, []RangeFilter{{Column: "k", Lo: iv(c.lo), Hi: iv(c.hi)}})
		if got != c.want {
			t.Fatalf("prune [%d,%d]: got %d want %d", c.lo, c.hi, got, c.want)
		}
	}
	// Files without zone stats never zone/bloom-prune.
	bare := tableobj.DataFile{Rows: 8, Min: f.Min, Max: f.Max}
	if got := filePrune(schema, bare, []RangeFilter{{Column: "k", Lo: iv(50), Hi: iv(60)}}); got != pruneNone {
		t.Fatalf("zone-free file pruned: %d", got)
	}
}

// End to end: with ZoneMaps on, a selective equality query reads a
// fraction of the files a range-stats-only plan would, because each
// file's bloom rules out the keys it never stored. Keys are dealt
// round-robin so every file's min/max covers the whole key range —
// file-level stats alone prune nothing.
func TestZoneMapsPruneSelectiveScan(t *testing.T) {
	const files, perFile = 16, 200
	run := func(zoneMaps bool) (Plan, int64) {
		clock := sim.NewClock()
		p := pool.New("lh-zm-e2e", clock, sim.NVMeSSD, 8, 16<<20)
		fs := tableobj.NewFileStore(plog.NewManager(p, 16<<20))
		e := New(clock, fs, tableobj.NewCatalog(clock), Options{
			Acceleration: true, FlushEvery: 64, ZoneMaps: zoneMaps,
		})
		mkTable(t, e, "events")
		for fi := 0; fi < files; fi++ {
			var rows []colfile.Row
			for i := 0; i < perFile; i++ {
				// start_time ≡ fi (mod files): ranges all span ~0..3200,
				// but each file holds only its own residue class.
				rows = append(rows, row(fmt.Sprintf("u%d", i), int64(i*files+fi), "bj", 1))
			}
			if _, err := e.Insert("events", rows); err != nil {
				t.Fatal(err)
			}
		}
		// Mid-range, so every file's min/max covers it, but only file 3
		// ever stored it.
		probe := []RangeFilter{{Column: "start_time", Lo: iv(100*files + 3), Hi: iv(100*files + 3)}}
		plan, _, err := e.PlanScan("events", probe)
		if err != nil {
			t.Fatal(err)
		}
		var matched int64
		if _, _, err := e.Scan("events", plan, probe, func(r colfile.Row) bool {
			matched++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return plan, matched
	}
	base, baseMatched := run(false)
	pruned, prunedMatched := run(true)
	if baseMatched != 1 || prunedMatched != 1 {
		t.Fatalf("matched rows: base %d, pruned %d", baseMatched, prunedMatched)
	}
	if len(base.Files) != files {
		t.Fatalf("baseline pruned %d files; the workload should defeat min/max stats", base.SkippedFiles)
	}
	// The floor: zone maps cut the files a selective query reads at
	// least 5x (16 -> ≤3; 2 at pin time). Blooms are probabilistic: the
	// true home file always survives, and at ~1% FP per probe the odd
	// false positive rides along.
	if len(pruned.Files) > 3 || pruned.BloomPrunedFiles < files-3 {
		t.Fatalf("zone-map plan: %d files, %d bloom-pruned (want ≤3 and ≥%d)",
			len(pruned.Files), pruned.BloomPrunedFiles, files-3)
	}
	t.Logf("selective scan reads %d of %d files (%d bloom-pruned)", len(pruned.Files), files, pruned.BloomPrunedFiles)
	if pruned.BloomPrunedFiles+len(pruned.Files) != files {
		t.Fatalf("plan books don't balance: %+v", pruned)
	}
}
