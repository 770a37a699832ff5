package scrub

import (
	"testing"

	"streamlake/internal/plog"
	"streamlake/internal/pool"
	"streamlake/internal/repair"
	"streamlake/internal/sim"
)

func newFixture(t *testing.T, disks, logs, extents int) (*sim.Clock, *plog.Manager, []*plog.PLog) {
	t.Helper()
	clock := sim.NewClock()
	p := pool.New("scrub", clock, sim.NVMeSSD, disks, 1<<20)
	m := plog.NewManager(p, 1<<20)
	var out []*plog.PLog
	for i := 0; i < logs; i++ {
		l, err := m.Create(plog.ReplicateN(3))
		if err != nil {
			t.Fatal(err)
		}
		for e := 0; e < extents; e++ {
			if _, _, err := l.Append(make([]byte, 1024)); err != nil {
				t.Fatal(err)
			}
		}
		out = append(out, l)
	}
	return clock, m, out
}

func TestDetectAndRepairLoop(t *testing.T) {
	clock, m, logs := newFixture(t, 5, 4, 3)
	s := New(clock, m, repair.New(clock, m))
	// Plant corruption off the read path in two logs.
	for _, li := range []int{1, 3} {
		if ok, err := logs[li].CorruptCopy(2, 1); err != nil || !ok {
			t.Fatalf("CorruptCopy: ok=%v err=%v", ok, err)
		}
	}
	before := clock.Now()
	r := s.RunOnce()
	if r.LogsScanned != 4 || s.Cursor() != logs[3].ID() {
		t.Fatalf("expected a sweep of all 4 logs ending on the last: %+v cursor=%d", r, s.Cursor())
	}
	if r.Mismatches != 2 {
		t.Fatalf("found %d mismatches, want 2 (%+v)", r.Mismatches, r)
	}
	if r.RepairedBytes == 0 {
		t.Fatalf("inline repair restored nothing: %+v", r)
	}
	if m.DegradedCount() != 0 {
		t.Fatal("logs still degraded after scrub+repair")
	}
	if clock.Now() == before {
		t.Fatal("scrub pass consumed no virtual time")
	}
	// Verification I/O covers all copies: 4 logs x 3 extents x 3 copies.
	if r.ExtentsChecked != 36 {
		t.Fatalf("checked %d extent-copies, want 36", r.ExtentsChecked)
	}
	// Second pass is clean and cheaper than a repair cycle.
	r2 := s.RunOnce()
	if r2.Mismatches != 0 || r2.RepairedBytes != 0 {
		t.Fatalf("second pass dirty: %+v", r2)
	}
	st := s.Stats()
	if st.Passes != 2 || st.Mismatches != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestScrubSkipsStaleAndDeadCopies: stale copies and failed disks are
// the repair service's domain; scrub reports them as skipped.
func TestScrubSkipsStaleAndDeadCopies(t *testing.T) {
	clock, m, logs := newFixture(t, 5, 1, 2)
	l := logs[0]
	if err := m.Pool().FailDisk(l.Placement()[0].Disk); err != nil {
		t.Fatal(err)
	}
	s := New(clock, m, nil)
	r := s.RunOnce()
	if r.SkippedCopies != 1 {
		t.Fatalf("skipped %d copies, want 1: %+v", r.SkippedCopies, r)
	}
	if r.ExtentsChecked != 4 { // 2 extents x 2 live copies
		t.Fatalf("checked %d, want 4", r.ExtentsChecked)
	}
}

func TestEmptyManager(t *testing.T) {
	clock := sim.NewClock()
	p := pool.New("scrub", clock, sim.NVMeSSD, 3, 1<<20)
	m := plog.NewManager(p, 1<<20)
	s := New(clock, m, nil)
	r := s.RunOnce()
	if r.LogsScanned != 0 || r.Elapsed != 0 {
		t.Fatalf("empty pass: %+v", r)
	}
}

// A tiering migration between scrub passes must not confuse the
// scrubber: the CRC sidecar and the cursor are keyed by log ID, not
// device identity, so a migrated log's planted corruption is found
// exactly once and nothing healthy is reported corrupt.
func TestMigrationUnderActiveScrubPass(t *testing.T) {
	clock, m, logs := newFixture(t, 5, 4, 3)
	hdd := pool.New("scrub-hdd", clock, sim.SASHDD, 5, 1<<20)
	s := New(clock, m, repair.New(clock, m))
	if r := s.RunOnce(); r.Mismatches != 0 {
		t.Fatalf("first pass over a clean population: %+v", r)
	}
	// Corrupt a copy of a log, then migrate that log to the cold pool
	// while the cursor is parked between passes.
	victim := logs[2]
	if ok, err := victim.CorruptCopy(1, 2); err != nil || !ok {
		t.Fatalf("CorruptCopy: ok=%v err=%v", ok, err)
	}
	if _, err := victim.Migrate(hdd); err != nil {
		t.Fatal(err)
	}
	rest := s.RunOnce()
	if rest.Mismatches != 1 {
		t.Fatalf("scrub over migrated population found %d mismatches, want exactly 1", rest.Mismatches)
	}
	if rest.RepairedBytes == 0 {
		t.Fatal("inline repair restored nothing on the destination pool")
	}
	if m.DegradedCount() != 0 {
		t.Fatal("logs still degraded after scrub+repair across pools")
	}
	// A fresh sweep over the now-clean population must stay silent: no
	// false corruption from the migration.
	clean := s.RunOnce()
	if clean.Mismatches != 0 {
		t.Fatalf("clean population reported %d mismatches after migration", clean.Mismatches)
	}
}
