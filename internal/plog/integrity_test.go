package plog

import (
	"bytes"
	"errors"
	"testing"

	"streamlake/internal/pool"
	"streamlake/internal/sim"
)

func newTestManager(t *testing.T, disks int) (*pool.Pool, *Manager) {
	t.Helper()
	p := pool.New("integ", sim.NewClock(), sim.NVMeSSD, disks, 1<<20)
	return p, NewManager(p, 1<<20)
}

func payload(n int, seed byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = seed + byte(i%31)
	}
	return out
}

// TestVerifyOnReadFallbackReplicated corrupts the first replica and
// checks the read transparently serves a healthy one, quarantines the
// bad copy, and repair restores full redundancy.
func TestVerifyOnReadFallbackReplicated(t *testing.T) {
	_, m := newTestManager(t, 4)
	l, err := m.Create(ReplicateN(3))
	if err != nil {
		t.Fatal(err)
	}
	want := payload(512, 3)
	if _, _, err := l.Append(want); err != nil {
		t.Fatal(err)
	}
	// Reads go to copy 0 first; corrupt exactly that one.
	if ok, err := l.CorruptCopy(0, 0); err != nil || !ok {
		t.Fatalf("CorruptCopy: ok=%v err=%v", ok, err)
	}
	got, _, err := l.Read(0, 512)
	if err != nil {
		t.Fatalf("read with corrupt copy: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read returned wrong bytes despite verification")
	}
	st := l.IntegrityStats()
	if st.Mismatches != 1 || st.FallbackReads != 1 || st.Injected != 1 {
		t.Fatalf("integrity stats: %+v", st)
	}
	if l.FullyRedundant() {
		t.Fatal("corrupt copy not quarantined as stale")
	}
	if _, _, err := l.RepairStale(); err != nil {
		t.Fatalf("repair: %v", err)
	}
	if !l.FullyRedundant() {
		t.Fatal("repair did not restore redundancy")
	}
	// The repaired copy verifies again: no new mismatches on re-read.
	if got, _, err := l.Read(0, 512); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read after repair: %v", err)
	}
	if st := l.IntegrityStats(); st.Mismatches != 1 {
		t.Fatalf("mismatch recounted after repair: %+v", st)
	}
}

// TestECCorruptShardReconstructs corrupts one EC shard column and
// verifies the read excludes it, decodes from the survivors, and repair
// re-encodes it (exercising the real decoder).
func TestECCorruptShardReconstructs(t *testing.T) {
	_, m := newTestManager(t, 6)
	l, err := m.Create(EC(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	want := payload(1024, 17)
	if _, _, err := l.Append(want); err != nil {
		t.Fatal(err)
	}
	// Corrupt a data column and a parity column in turn.
	for _, col := range []int{1, 5} {
		if ok, err := l.CorruptCopy(col, 0); err != nil || !ok {
			t.Fatalf("CorruptCopy(%d): ok=%v err=%v", col, ok, err)
		}
	}
	got, _, err := l.Read(0, 1024)
	if err != nil {
		t.Fatalf("read with 2 corrupt shards: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("EC read returned wrong bytes")
	}
	if st := l.IntegrityStats(); st.Mismatches < 1 {
		t.Fatalf("no mismatch recorded: %+v", st)
	}
	if l.FullyRedundant() {
		t.Fatal("corrupt shards not quarantined")
	}
	if _, _, err := l.RepairStale(); err != nil {
		t.Fatalf("repair: %v", err)
	}
	if !l.FullyRedundant() {
		t.Fatal("repair did not restore EC redundancy")
	}
	if got, _, err := l.Read(0, 1024); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read after EC repair: %v", err)
	}
}

// TestECDoubleFaultBoundary drives EC(4,2) to its tolerance boundary
// with mixed faults: one killed disk plus one corrupt shard is exactly
// tolerable; a third fault must yield ErrUnavailable, never wrong
// bytes.
func TestECDoubleFaultBoundary(t *testing.T) {
	p, m := newTestManager(t, 6)
	l, err := m.Create(EC(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	want := payload(2048, 29)
	if _, _, err := l.Append(want); err != nil {
		t.Fatal(err)
	}
	// Fault 1: kill the disk under shard 0.
	if err := p.FailDisk(l.Placement()[0].Disk); err != nil {
		t.Fatal(err)
	}
	// Fault 2: silently corrupt shard 2.
	if ok, err := l.CorruptCopy(2, 0); err != nil || !ok {
		t.Fatalf("CorruptCopy: ok=%v err=%v", ok, err)
	}
	got, _, err := l.Read(0, 2048)
	if err != nil {
		t.Fatalf("read at tolerance boundary (1 dead + 1 corrupt): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("boundary read returned wrong bytes")
	}
	// Fault 3: corrupt another shard — beyond tolerance. The corruption
	// must surface as unavailability, not silent wrong bytes.
	if ok, err := l.CorruptCopy(4, 0); err != nil || !ok {
		t.Fatalf("CorruptCopy: ok=%v err=%v", ok, err)
	}
	if got, _, err := l.Read(0, 2048); err == nil {
		if !bytes.Equal(got, want) {
			t.Fatal("read beyond tolerance returned WRONG bytes")
		}
		t.Fatal("read beyond tolerance succeeded")
	} else if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("want ErrUnavailable, got %v", err)
	}
}

// TestScrubFindsCorruptionOffTheReadPath corrupts a replica that reads
// never touch (the last copy) and shows only the scrubber finds it —
// the verify-all-copies-not-just-the-quorum property.
func TestScrubFindsCorruptionOffTheReadPath(t *testing.T) {
	_, m := newTestManager(t, 4)
	l, err := m.Create(ReplicateN(3))
	if err != nil {
		t.Fatal(err)
	}
	want := payload(300, 7)
	for i := 0; i < 4; i++ {
		if _, _, err := l.Append(want); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt extent 2 of the LAST replica; reads serve copy 0.
	if ok, err := l.CorruptCopy(2, 2); err != nil || !ok {
		t.Fatalf("CorruptCopy: ok=%v err=%v", ok, err)
	}
	for off := int64(0); off < 1200; off += 300 {
		if got, _, err := l.Read(off, 300); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read: %v", err)
		}
	}
	if st := l.IntegrityStats(); st.Mismatches != 0 {
		t.Fatalf("read path touched the corrupt copy: %+v", st)
	}
	res := l.Scrub()
	if res.Mismatches != 1 {
		t.Fatalf("scrub found %d mismatches, want 1 (%+v)", res.Mismatches, res)
	}
	if res.Extents == 0 || res.Bytes == 0 {
		t.Fatalf("scrub did no verification I/O: %+v", res)
	}
	if l.FullyRedundant() {
		t.Fatal("scrub did not quarantine the corrupt copy")
	}
	if _, _, err := l.RepairStale(); err != nil {
		t.Fatal(err)
	}
	// A second scrub pass is clean.
	res2 := l.Scrub()
	if res2.Mismatches != 0 {
		t.Fatalf("second scrub still dirty: %+v", res2)
	}
}

// TestCorruptRandomDeterministic verifies the seeded random corruption
// picker replays bit-for-bit.
func TestCorruptRandomDeterministic(t *testing.T) {
	run := func() []CorruptionEvent {
		_, m := newTestManager(t, 4)
		for i := 0; i < 3; i++ {
			l, err := m.Create(ReplicateN(3))
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 3; j++ {
				if _, _, err := l.Append(payload(100, byte(i*3+j))); err != nil {
					t.Fatal(err)
				}
			}
		}
		rng := sim.NewRNG(42)
		var evs []CorruptionEvent
		for i := 0; i < 5; i++ {
			ev, ok := m.CorruptRandom(rng)
			if !ok {
				t.Fatal("nothing corruptible")
			}
			evs = append(evs, ev)
		}
		return evs
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	// Distinct picks: the picker never re-corrupts the same extent-copy.
	seen := map[CorruptionEvent]bool{}
	for _, ev := range a {
		if seen[ev] {
			t.Fatalf("duplicate corruption target %v", ev)
		}
		seen[ev] = true
	}
}

// TestCorruptRandomOnDiskTargetsDisk checks disk-scoped corruption only
// lands on copies placed on that disk.
func TestCorruptRandomOnDiskTargetsDisk(t *testing.T) {
	_, m := newTestManager(t, 4)
	l, err := m.Create(ReplicateN(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append(payload(100, 1)); err != nil {
		t.Fatal(err)
	}
	target := l.Placement()[1].Disk
	rng := sim.NewRNG(1)
	ev, ok := m.CorruptRandomOnDisk(target, rng)
	if !ok {
		t.Fatal("no candidate on target disk")
	}
	if ev.Disk != target || ev.SliceIdx != 1 {
		t.Fatalf("corruption landed on %+v, want disk %d", ev, target)
	}
}

// TestDegradedWriteThenCorruptionInterplay: a copy stale from a degraded
// write has no checksum for the missed extent; corruption can't target
// it, repair restores both the bytes and the checksums.
func TestDegradedWriteThenCorruptionInterplay(t *testing.T) {
	p, m := newTestManager(t, 4)
	l, err := m.Create(ReplicateN(3))
	if err != nil {
		t.Fatal(err)
	}
	h := &scriptHook{fail: map[pool.DiskID]bool{}}
	p.SetFaultHook(h)
	want := payload(200, 5)
	if _, _, err := l.Append(want); err != nil {
		t.Fatal(err)
	}
	// Degrade copy 1 for the second extent.
	h.fail = map[pool.DiskID]bool{l.Placement()[1].Disk: true}
	if _, _, err := l.Append(want); err != nil {
		t.Fatal(err)
	}
	h.fail = map[pool.DiskID]bool{}
	if ok, _ := l.CorruptCopy(1, 1); ok {
		t.Fatal("corrupted an extent the copy never stored")
	}
	// Catch the copy up first: scrub skips stale copies (repair owns
	// them), so corruption is only scrubbable on fully-caught-up copies.
	if _, _, err := l.RepairStale(); err != nil {
		t.Fatal(err)
	}
	// Now corrupt an extent it holds. Repair alone can't see it — scrub
	// must detect (quarantine) before repair can fix it.
	if ok, err := l.CorruptCopy(1, 0); err != nil || !ok {
		t.Fatalf("CorruptCopy: ok=%v err=%v", ok, err)
	}
	if res := l.Scrub(); res.Mismatches != 1 {
		t.Fatalf("scrub: %+v", res)
	}
	if _, _, err := l.RepairStale(); err != nil {
		t.Fatal(err)
	}
	if !l.FullyRedundant() {
		t.Fatal("repair left stale state")
	}
	if res := l.Scrub(); res.Mismatches != 0 {
		t.Fatalf("post-repair scrub dirty: %+v", res)
	}
}
