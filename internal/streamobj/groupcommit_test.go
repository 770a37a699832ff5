package streamobj

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"streamlake/internal/plog"
	"streamlake/internal/pool"
	"streamlake/internal/sim"
)

func newStoreWithPool(t testing.TB) (*Store, *pool.Pool, *plog.Manager) {
	t.Helper()
	clock := sim.NewClock()
	p := pool.New("sobj-gc", clock, sim.NVMeSSD, 6, 16<<20)
	mgr := plog.NewManager(p, 4<<20)
	return NewStore(clock, mgr), p, mgr
}

func writeOps(p *pool.Pool) int64 {
	var total int64
	for i := 0; i < 6; i++ {
		total += p.DiskStats(pool.DiskID(i)).WriteOps
	}
	return total
}

func fill(t *testing.T, o *Object, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, _, err := o.Append([]Record{rec(fmt.Sprintf("k%05d", i), fmt.Sprintf("v%05d", i))}, "p", int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
}

func checkAll(t *testing.T, o *Object, n int) {
	t.Helper()
	var off int64
	for off < int64(n) {
		recs, _, err := o.Read(off, ReadCtrl{MaxRecords: SliceRecords})
		if err != nil {
			t.Fatalf("read at %d: %v", off, err)
		}
		if len(recs) == 0 {
			t.Fatalf("read at %d returned nothing", off)
		}
		for _, r := range recs {
			if r.Offset != off {
				t.Fatalf("offset %d: got record %d", off, r.Offset)
			}
			if want := fmt.Sprintf("v%05d", off); string(r.Value) != want {
				t.Fatalf("offset %d: value %q, want %q", off, r.Value, want)
			}
			off++
		}
	}
}

// Group commit holds full slices until the coordinator's target count
// is buffered, then folds them into one coalesced device commit: same
// records, same per-slice index entries, a fraction of the write ops.
func TestGroupCommitCoalescesSliceFlushes(t *testing.T) {
	const target, n = 4, 4 * SliceRecords
	legacy, lp, _ := newStoreWithPool(t)
	lo, _ := legacy.Create(CreateOptions{Topic: "t"})
	fill(t, lo, n)

	grouped, gp, gm := newStoreWithPool(t)
	grouped.EnableGroupCommit(target)
	go2, _ := grouped.Create(CreateOptions{Topic: "t"})
	// One record short of the trigger: every slice flush is deferred.
	fill(t, go2, n-1)
	if st := shapeOf(go2); st.Slices != 0 || st.OpenBuf != n-1 {
		t.Fatalf("flushed before the group target: %+v", st)
	}
	flushedBefore := writeOps(gp)
	if _, _, err := go2.Append([]Record{rec("last", fmt.Sprintf("v%05d", n-1))}, "p", int64(n)); err != nil {
		t.Fatal(err)
	}
	if st := shapeOf(go2); st.Slices != target || st.OpenBuf != 0 {
		t.Fatalf("group flush did not drain %d slices: %+v", target, st)
	}
	// The coalesced flush costs one device write per placement copy —
	// the same as ONE legacy slice flush, not four.
	perSlice := int64(lo.opts.Redundancy.Width())
	if got := writeOps(gp) - flushedBefore; got != perSlice {
		t.Fatalf("group flush used %d device writes, want %d", got, perSlice)
	}
	if lw, gw := writeOps(lp), writeOps(gp); gw >= lw {
		t.Fatalf("group commit saved nothing: legacy %d, grouped %d", lw, gw)
	}
	st := gm.GroupCommitStats()
	if st.Commits != 1 || st.Payloads != target || st.SavedDeviceWrites != perSlice*int64(target-1) {
		t.Fatalf("group commit stats: %+v", st)
	}
	// The records and their offsets are indistinguishable from legacy.
	if lo.End() != go2.End() {
		t.Fatalf("ends diverged: %d vs %d", lo.End(), go2.End())
	}
	checkAll(t, go2, n)
}

// The one flush rule, at any target: while at least `target` full slices
// are buffered the oldest `target` of them commit as one batch, and
// Flush drains what is left — full slices and the short tail — in
// commits of up to `target`. Target 1 (the default) is one commit per
// slice.
func TestFlushCommitsUpToTargetSlices(t *testing.T) {
	const tail = 7
	for _, tc := range []struct {
		name          string
		target, full  int
		appendCommits int64 // device commits the one big append triggers
		leftSlices    int   // full slices still buffered after it
		coalesced     int64 // commits of >1 slice, Flush included
	}{
		{"target 4", 4, 9, 2, 1, 3}, // 4+4 on append, then 1+tail on Flush
		{"default", 1, 3, 3, 0, 0},  // 1+1+1 on append, then the tail alone
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, p, m := newStoreWithPool(t)
			s.EnableGroupCommit(tc.target)
			o, _ := s.Create(CreateOptions{Topic: "t"})
			width := int64(o.opts.Redundancy.Width())
			n := tc.full*SliceRecords + tail
			batch := make([]Record, n)
			for i := range batch {
				batch[i] = rec(fmt.Sprintf("k%05d", i), fmt.Sprintf("v%05d", i))
			}
			if _, _, err := o.Append(batch, "p", 1); err != nil {
				t.Fatal(err)
			}
			if got := writeOps(p); got != tc.appendCommits*width {
				t.Fatalf("append issued %d device writes, want %d commits x %d copies", got, tc.appendCommits, width)
			}
			wantSlices := tc.full - tc.leftSlices
			if st := shapeOf(o); st.Slices != wantSlices || st.OpenBuf != tc.leftSlices*SliceRecords+tail {
				t.Fatalf("after append: %+v, want %d slices persisted and %d full + tail buffered", st, wantSlices, tc.leftSlices)
			}
			if _, err := o.Flush(); err != nil {
				t.Fatal(err)
			}
			if got := writeOps(p); got != (tc.appendCommits+1)*width {
				t.Fatalf("Flush drained the rest in %d device writes, want one more commit", got-tc.appendCommits*width)
			}
			if st := shapeOf(o); st.Slices != tc.full+1 || st.OpenBuf != 0 {
				t.Fatalf("flush left records behind: %+v", st)
			}
			if st := m.GroupCommitStats(); st.Commits != tc.coalesced {
				t.Fatalf("coalesced commits: %+v, want %d", st, tc.coalesced)
			}
			checkAll(t, o, n)
		})
	}
}

// Flush with group commit on drains full slices AND the short tail in
// one coalesced commit; everything stays readable.
func TestGroupCommitFlushDrainsTail(t *testing.T) {
	s, _, m := newStoreWithPool(t)
	s.EnableGroupCommit(8)
	o, _ := s.Create(CreateOptions{Topic: "t"})
	n := SliceRecords + 44 // one full slice plus a tail, below the trigger
	fill(t, o, n)
	if st := shapeOf(o); st.Slices != 0 {
		t.Fatalf("flushed below the trigger: %+v", st)
	}
	if _, err := o.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := shapeOf(o); st.Slices != 2 || st.OpenBuf != 0 {
		t.Fatalf("flush left records behind: %+v", st)
	}
	checkAll(t, o, n)
	if st := m.GroupCommitStats(); st.Commits != 1 || st.Payloads != 2 {
		t.Fatalf("stats after tail drain: %+v", st)
	}
}

// A group too large for even a fresh log falls back to one append per
// slice (shard.AppendBatch), so nothing coalesced and nothing may count
// as a group commit: the four slices cost four writes per copy.
func TestGroupCommitStatsCountOnlyCoalescedCommits(t *testing.T) {
	clock := sim.NewClock()
	p := pool.New("sobj-gc", clock, sim.NVMeSSD, 6, 16<<20)
	m := plog.NewManager(p, 1<<20) // four 1 KiB-record slices overflow it
	s := NewStore(clock, m)
	s.EnableGroupCommit(4)
	o, _ := s.Create(CreateOptions{Topic: "t"})
	value := bytes.Repeat([]byte("v"), 1<<10)
	for i := 0; i < 4*SliceRecords; i++ {
		if _, _, err := o.Append([]Record{{Key: []byte(fmt.Sprintf("k%05d", i)), Value: value}}, "p", int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if st := shapeOf(o); st.Slices != 4 || st.OpenBuf != 0 {
		t.Fatalf("the group did not flush: %+v", st)
	}
	if got, want := writeOps(p), 4*int64(o.opts.Redundancy.Width()); got != want {
		t.Fatalf("fallback flush issued %d device writes, want %d", got, want)
	}
	if st := m.GroupCommitStats(); st != (plog.GroupCommitStats{}) {
		t.Fatalf("a flush that fell back to single appends counted as coalesced: %+v", st)
	}
}

// The SCM-cache path caches each slice of a group individually, same as
// legacy flushes.
func TestGroupCommitWithSCMCache(t *testing.T) {
	s, _, _ := newStoreWithPool(t)
	s.EnableGroupCommit(2)
	o, _ := s.Create(CreateOptions{Topic: "t", SCMCache: true})
	n := 2 * SliceRecords
	fill(t, o, n)
	if st := shapeOf(o); st.Slices != 2 {
		t.Fatalf("group flush: %+v", st)
	}
	checkAll(t, o, n)
}

// TestConcurrentFlushSealReclaimMigrate is the -race regression for the
// sealed-while-open edge: appends, group flushes, reclaims (which seal
// and destroy chain logs), and tiering migrations (which can hold stale
// log handles) all race. Destroyed logs must refuse migration, late
// appends must get a deterministic ErrSealed (rolling the chain), and
// every surviving record must read back intact.
func TestConcurrentFlushSealReclaimMigrate(t *testing.T) {
	clock := sim.NewClock()
	src := pool.New("race-src", clock, sim.NVMeSSD, 6, 16<<20)
	dst := pool.New("race-dst", clock, sim.SASHDD, 6, 16<<20)
	mgr := plog.NewManager(src, 1<<17) // tiny logs: the chain rolls often
	s := NewStore(clock, mgr)
	s.EnableGroupCommit(3)
	o, err := s.Create(CreateOptions{Topic: "race"})
	if err != nil {
		t.Fatal(err)
	}
	const total = 3000
	done := make(chan struct{})
	var horizon atomic.Int64 // highest offset handed to ReclaimThrough
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // appender
		defer wg.Done()
		defer close(done)
		for i := 0; i < total; i++ {
			if _, _, err := o.Append([]Record{rec(fmt.Sprintf("k%05d", i), fmt.Sprintf("v%05d", i))}, "p", int64(i+1)); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
		}
	}()
	go func() { // reclaimer: seals + destroys drained chain logs
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			end := o.End()
			if cut := end - int64(2*SliceRecords); cut > 0 {
				if _, err := o.ReclaimThrough(cut); err != nil {
					t.Errorf("reclaim: %v", err)
					return
				}
				if cut > horizon.Load() {
					horizon.Store(cut)
				}
			}
		}
	}()
	go func() { // tiering: migrates whatever snapshot it sees
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, info := range mgr.Logs() {
				if l := mgr.Get(info.ID); l != nil && info.Sealed {
					l.Migrate(dst) // destroyed logs refuse; that's the fix
				}
			}
		}
	}()
	wg.Wait()
	if _, err := o.Flush(); err != nil {
		t.Fatal(err)
	}
	// Everything from the reclaim horizon to the end reads back intact.
	start, end := horizon.Load(), o.End()
	if end != total {
		t.Fatalf("end: %d", end)
	}
	for off := start; off < end; {
		recs, _, err := o.Read(off, ReadCtrl{MaxRecords: SliceRecords})
		if err != nil {
			t.Fatalf("read at %d: %v", off, err)
		}
		if len(recs) == 0 {
			t.Fatalf("no records at %d", off)
		}
		for _, r := range recs {
			if want := fmt.Sprintf("v%05d", r.Offset); string(r.Value) != want {
				t.Fatalf("offset %d: %q", r.Offset, r.Value)
			}
		}
		off = recs[len(recs)-1].Offset + 1
	}
}
