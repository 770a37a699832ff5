package compact

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"streamlake/internal/colfile"
	"streamlake/internal/plog"
	"streamlake/internal/pool"
	"streamlake/internal/sim"
	"streamlake/internal/tableobj"
)

func TestBlockUtilizationFormula(t *testing.T) {
	// One 1MB file in a 4MB block: 0.25.
	if got := BlockUtilization([]int64{1 << 20}, 4<<20); got != 0.25 {
		t.Fatalf("util = %v", got)
	}
	// A full block: 1.0.
	if got := BlockUtilization([]int64{4 << 20}, 4<<20); got != 1 {
		t.Fatalf("full block util = %v", got)
	}
	// 5MB file: ceil(5/4)=2 blocks -> 5/8.
	if got := BlockUtilization([]int64{5 << 20}, 4<<20); got != 0.625 {
		t.Fatalf("spill util = %v", got)
	}
	// Merging helps: four 1MB files (4 blocks) vs one 4MB file (1 block).
	small := BlockUtilization([]int64{1 << 20, 1 << 20, 1 << 20, 1 << 20}, 4<<20)
	merged := BlockUtilization([]int64{4 << 20}, 4<<20)
	if small != 0.25 || merged != 1 {
		t.Fatalf("merge effect: %v -> %v", small, merged)
	}
	// Edge cases.
	if BlockUtilization(nil, 4<<20) != 1 || BlockUtilization([]int64{1}, 0) != 1 {
		t.Fatal("degenerate utilization")
	}
}

func TestBinpackPlan(t *testing.T) {
	target := int64(100)
	sizes := []int64{60, 50, 40, 30, 20, 150}
	plan := BinpackPlan(sizes, target)
	// File 5 (150 >= target) must not appear; each bin <= target; only
	// multi-file bins returned.
	seen := map[int]bool{}
	for _, bin := range plan {
		if len(bin) < 2 {
			t.Fatalf("singleton bin: %v", bin)
		}
		var sum int64
		for _, idx := range bin {
			if idx == 5 {
				t.Fatal("full file included in plan")
			}
			if seen[idx] {
				t.Fatalf("file %d in two bins", idx)
			}
			seen[idx] = true
			sum += sizes[idx]
		}
		if sum > target {
			t.Fatalf("bin exceeds target: %v = %d", bin, sum)
		}
	}
	if len(seen) < 4 {
		t.Fatalf("plan covers only %d files", len(seen))
	}
}

func TestQuickBinpackInvariants(t *testing.T) {
	f := func(raw []uint16, targetSel uint16) bool {
		target := int64(targetSel%1000) + 100
		sizes := make([]int64, len(raw))
		for i, r := range raw {
			sizes[i] = int64(r%500) + 1
		}
		plan := BinpackPlan(sizes, target)
		seen := map[int]bool{}
		for _, bin := range plan {
			if len(bin) < 2 {
				return false
			}
			var sum int64
			for _, idx := range bin {
				if idx < 0 || idx >= len(sizes) || seen[idx] || sizes[idx] >= target {
					return false
				}
				seen[idx] = true
				sum += sizes[idx]
			}
			if sum > target {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRewardFormula(t *testing.T) {
	// Success: utilization improvement.
	if got := Reward(true, 0.3, 0.8, 0.5); got != 0.5 {
		t.Fatalf("success reward %v", got)
	}
	// Failure: -(1 - expected improvement).
	if got := Reward(false, 0.3, 0.3, 0.1); got != -0.9 {
		t.Fatalf("failure reward %v", got)
	}
	// A failure with large expected improvement is punished less: the
	// agent should still try when the payoff is big.
	if Reward(false, 0, 0, 0.8) <= Reward(false, 0, 0, 0.1) {
		t.Fatal("failure reward not monotone in expected improvement")
	}
}

func TestDefaultStrategyInterval(t *testing.T) {
	d := NewDefault(30 * time.Second)
	p := d.ForPartition("p1")
	s := State{PartFiles: 10}
	if !p.ShouldCompact(30*time.Second, s) {
		t.Fatal("interval elapsed but no compaction")
	}
	if p.ShouldCompact(45*time.Second, s) {
		t.Fatal("fired before interval")
	}
	if !p.ShouldCompact(61*time.Second, s) {
		t.Fatal("second interval missed")
	}
	// Never compacts a single file.
	if p.ShouldCompact(200*time.Second, State{PartFiles: 1}) {
		t.Fatal("compacted single file")
	}
}

func TestEnvIngestAndCompact(t *testing.T) {
	clock := sim.NewClock()
	env := NewEnv(clock, 4, 1)
	env.ConflictProb = 0 // deterministic success for this test
	env.Ingest(10 * time.Second)
	if env.StateOf(0).PartFiles == 0 {
		t.Fatal("no files ingested")
	}
	before := env.StateOf(0).PartUtil
	res := env.Compact(0)
	if !res.Attempted || !res.Success {
		t.Fatalf("compact: %+v", res)
	}
	if res.UtilAfter <= before || res.Reward <= 0 {
		t.Fatalf("no improvement: %+v", res)
	}
	// A merge-on-read query opens fewer files after compaction.
	filesBefore := len(env.parts[1].files)
	env.ConflictProb = 0
	env.Compact(1)
	if len(env.parts[1].files) >= filesBefore {
		t.Fatal("compaction did not reduce the partition's files")
	}
}

func TestEnvConflictGivesNegativeReward(t *testing.T) {
	clock := sim.NewClock()
	env := NewEnv(clock, 1, 2)
	env.ConflictProb = 1 // every compaction loses the commit race
	env.Ingest(10 * time.Second)
	res := env.Compact(0)
	if !res.Attempted || res.Success || res.Reward >= 0 {
		t.Fatalf("conflicted compaction: %+v", res)
	}
	// Files unchanged on failure.
	if res.UtilAfter != res.UtilBefore {
		t.Fatal("failed compaction mutated files")
	}
}

func TestQLearnerLearnsObviousPolicy(t *testing.T) {
	// Construct a world where compacting low-utilization partitions
	// always succeeds with high reward and compacting high-utilization
	// ones always wastes: the learner must separate the two states.
	q := NewQLearner(3)
	lowUtil := State{PartFiles: 40, PartUtil: 0.2, GlobalUtil: 0.3}
	highUtil := State{PartFiles: 2, PartUtil: 0.95, GlobalUtil: 0.9}
	for i := 0; i < 2000; i++ {
		q.Observe(lowUtil, true, 0.7, lowUtil, false)
		q.Observe(lowUtil, false, -0.2, lowUtil, false)
		q.Observe(highUtil, true, -0.6, highUtil, false)
		q.Observe(highUtil, false, 0.0, highUtil, false)
	}
	q.Train(3)
	q.SetEpsilon(0)
	if !q.Exploit(lowUtil) {
		t.Fatal("learner refuses profitable compaction")
	}
	if q.Exploit(highUtil) {
		t.Fatal("learner compacts already-tight partition")
	}
}

func TestTrainAutoBeatsDefaultOnUtilization(t *testing.T) {
	// Train, then run auto vs default over identical ingest traces and
	// compare average block utilization — the paper reports ~50% higher
	// for auto.
	train := NewEnv(sim.NewClock(), 8, 7)
	learner := TrainAuto(train, 300, 7)

	run := func(strategy interface {
		ShouldCompact(time.Duration, State) bool
	}, seed uint64) float64 {
		clock := sim.NewClock()
		env := NewEnv(clock, 8, seed)
		var utilSum float64
		var samples int
		def, isDefault := strategy.(*Default)
		for r := 0; r < 150; r++ {
			env.CycleIngestRate(r)
			env.Ingest(5 * time.Second)
			for i := 0; i < env.Partitions(); i++ {
				s := env.StateOf(i)
				var act bool
				if isDefault {
					act = def.ForPartition(string(rune('a'+i))).ShouldCompact(clock.Now(), s)
				} else {
					act = strategy.ShouldCompact(clock.Now(), s)
				}
				if act {
					env.Compact(i)
				}
			}
			utilSum += env.GlobalUtil()
			samples++
		}
		return utilSum / float64(samples)
	}
	auto := run(&Auto{Learner: learner}, 99)
	def := run(NewDefault(30*time.Second), 99)
	t.Logf("auto util=%.3f default util=%.3f", auto, def)
	if auto <= def {
		t.Fatalf("auto-compaction (%.3f) did not beat default (%.3f)", auto, def)
	}
}

func TestCompactPartitionRealTable(t *testing.T) {
	clock := sim.NewClock()
	p := pool.New("cp", clock, sim.NVMeSSD, 8, 4<<20)
	fs := tableobj.NewFileStore(plog.NewManager(p, 8<<20))
	cat := tableobj.NewCatalog(clock)
	schema := colfile.MustSchema("k:int64", "p:string")
	tbl, _, err := tableobj.Create(clock, fs, cat, tableobj.TableMeta{
		Name: "t", Path: "/t", Schema: schema, PartitionColumn: "p",
	})
	if err != nil {
		t.Fatal(err)
	}
	// Ten tiny single-row files in one partition.
	for i := 0; i < 10; i++ {
		x, _ := tbl.Begin()
		if _, err := x.WriteRows([]colfile.Row{{colfile.IntValue(int64(i)), colfile.StringValue("A")}}); err != nil {
			t.Fatal(err)
		}
		if _, err := x.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	merged, cost, err := CompactPartition(tbl, "p=A", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if merged != 10 || cost <= 0 {
		t.Fatalf("merged %d files, cost %v", merged, cost)
	}
	cur, _, _ := tbl.Current()
	var partFiles int
	for _, f := range cur.Files {
		if f.Partition == "p=A" {
			partFiles++
		}
	}
	if partFiles != 1 || cur.RowCount != 10 {
		t.Fatalf("after compaction: %d files, %d rows", partFiles, cur.RowCount)
	}
	// All rows still readable.
	var rows int
	for _, f := range cur.Files {
		r, _, err := tbl.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var dec colfile.RowDecoder
		got, err := dec.AppendRows(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		rows += len(got)
	}
	if rows != 10 {
		t.Fatalf("rows after compaction: %d", rows)
	}
}

// A compaction that meets a file it cannot decode fails and commits
// nothing; it used to merge the rows read before the damage and drop the
// rest with the file.
func TestCompactPartitionFailsOnUndecodableFile(t *testing.T) {
	clock := sim.NewClock()
	fs := tableobj.NewFileStore(plog.NewManager(pool.New("cd", clock, sim.NVMeSSD, 8, 4<<20), 8<<20))
	tbl, _, err := tableobj.Create(clock, fs, tableobj.NewCatalog(clock), tableobj.TableMeta{
		Name: "t", Path: "/t", Schema: colfile.MustSchema("k:int64", "p:string"), PartitionColumn: "p",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{10_000, 1, 1} { // the first file has two row groups
		rows := make([]colfile.Row, n)
		for i := range rows {
			rows[i] = colfile.Row{colfile.IntValue(int64(i)), colfile.StringValue("A")}
		}
		x, _ := tbl.Begin()
		if _, err := x.WriteRows(rows); err != nil {
			t.Fatal(err)
		}
		if _, err := x.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	cur, _, _ := tbl.Current()
	// Damage the first chunk of the big file's last group: the reserved
	// DEFLATE block type. Chunks follow the 5-byte header group by group.
	blob, _, _ := fs.Read(cur.Files[0].Path)
	r, err := colfile.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), blob...)
	bad[5+r.GroupBytes(0)] |= 0x06
	if _, err := fs.Write(cur.Files[0].Path, bad); err != nil {
		t.Fatal(err)
	}
	if _, _, err := CompactPartition(tbl, "p=A", 1<<20); err == nil {
		t.Fatal("compaction over a damaged file succeeded")
	}
	if after, _, _ := tbl.Current(); after.ID != cur.ID || after.RowCount != 10_002 {
		t.Fatalf("after a failed compaction: snapshot %d -> %d, %d rows", cur.ID, after.ID, after.RowCount)
	}
}

func TestCompactPartitionConflict(t *testing.T) {
	clock := sim.NewClock()
	p := pool.New("cc", clock, sim.NVMeSSD, 8, 4<<20)
	fs := tableobj.NewFileStore(plog.NewManager(p, 8<<20))
	cat := tableobj.NewCatalog(clock)
	schema := colfile.MustSchema("k:int64", "p:string")
	tbl, _, _ := tableobj.Create(clock, fs, cat, tableobj.TableMeta{
		Name: "t", Path: "/t", Schema: schema, PartitionColumn: "p",
	})
	for i := 0; i < 4; i++ {
		x, _ := tbl.Begin()
		x.WriteRows([]colfile.Row{{colfile.IntValue(int64(i)), colfile.StringValue("A")}})
		x.Commit()
	}
	// Interleave: a concurrent ingest commits between the compaction's
	// snapshot read and its commit. Reproduce by committing under the
	// compactor's feet via a second transaction started first.
	snapBefore, _, _ := tbl.Current()
	ingest, _ := tbl.Begin()
	ingest.WriteRows([]colfile.Row{{colfile.IntValue(99), colfile.StringValue("A")}})

	done := make(chan error, 1)
	go func() {
		// The compactor reads current state, plans, then the ingest
		// wins the pointer CAS first.
		_, err := ingest.Commit()
		done <- err
	}()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Now run a compaction whose Begin() predates... simulate by using
	// the stale snapshot through a manual transaction.
	x, _ := tbl.Begin()
	_ = snapBefore
	for _, f := range snapBefore.Files {
		x.RemoveFile(f)
	}
	// A racing ingest commits again before x.
	y, _ := tbl.Begin()
	y.WriteRows([]colfile.Row{{colfile.IntValue(100), colfile.StringValue("A")}})
	if _, err := y.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := x.Commit(); !errors.Is(err, tableobj.ErrConflict) {
		t.Fatalf("stale compaction commit: %v", err)
	}
}

// failFrom fails every pool write from the nth one while n > 0.
type failFrom struct{ n, seen int }

func (h *failFrom) BeforeWrite(pool.DiskID, int64) (time.Duration, error) {
	if h.n > 0 {
		if h.seen++; h.seen >= h.n {
			return 0, errors.New("injected write fault")
		}
	}
	return 0, nil
}

func (h *failFrom) BeforeRead(pool.DiskID, int64) (time.Duration, error) { return 0, nil }

// A compaction of two bins whose writes start failing at any point (the
// first bin's merged file, the second's, or a metadata file of the
// commit) leaves no stored data file the current snapshot does not
// reach, once the snapshots before it expire.
func TestFailedCompactionLeavesNoDataFiles(t *testing.T) {
	for n := 1; ; n++ {
		clock := sim.NewClock()
		p := pool.New("cf", clock, sim.NVMeSSD, 8, 4<<20)
		fs := tableobj.NewFileStore(plog.NewManager(p, 8<<20))
		tbl, _, err := tableobj.Create(clock, fs, tableobj.NewCatalog(clock), tableobj.TableMeta{
			Name: "t", Path: "/t", Schema: colfile.MustSchema("k:int64", "p:string"), PartitionColumn: "p",
		})
		if err != nil {
			t.Fatal(err)
		}
		var most int64
		for i := 0; i < 6; i++ {
			x, _ := tbl.Begin()
			f, err := x.WriteRows([]colfile.Row{{colfile.IntValue(int64(i)), colfile.StringValue("A")}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := x.Commit(); err != nil {
				t.Fatal(err)
			}
			most = max(most, f.Bytes)
		}
		clock.Advance(time.Hour) // so an expiry at the end keeps only the last snapshot
		hook := &failFrom{n: n}
		p.SetFaultHook(hook)
		merged, _, err := CompactPartition(tbl, "p=A", 3*most) // two bins of three
		hook.n = 0
		if err == nil && merged != 6 {
			t.Fatalf("the compaction merged %d files, want 6", merged)
		}
		if _, err := tbl.ExpireSnapshots(clock.Now()); err != nil {
			t.Fatal(err)
		}
		cur, _, cerr := tbl.Current()
		if cerr != nil {
			t.Fatal(cerr)
		}
		if stored, _ := fs.List("/t/data/"); len(stored) != len(cur.Files) {
			t.Fatalf("writes failing from the %dth: %d data files stored, the snapshot reaches %d (%v)", n, len(stored), len(cur.Files), err)
		}
		if err == nil {
			return
		}
	}
}
