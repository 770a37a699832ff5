package repair

import (
	"testing"
	"time"

	"streamlake/internal/faults"
	"streamlake/internal/plog"
	"streamlake/internal/pool"
	"streamlake/internal/sim"
)

func TestRepairCatchUpAfterRevive(t *testing.T) {
	clock := sim.NewClock()
	p := pool.New("rp", clock, sim.NVMeSSD, 3, 1<<20)
	m := plog.NewManager(p, 1<<20)
	l, err := m.Create(plog.ReplicateN(3))
	if err != nil {
		t.Fatal(err)
	}
	l.Append([]byte("hello"))
	// All three disks host the group; a transient outage on one.
	p.FailDisk(1)
	if _, _, err := l.Append([]byte(" world")); err != nil {
		t.Fatalf("degraded append: %v", err)
	}
	if l.FullyRedundant() {
		t.Fatal("append with a dead disk should leave a stale copy")
	}
	p.ReviveDisk(1)
	svc := New(clock, m)
	if svc.Pending() != 1 {
		t.Fatalf("pending = %d", svc.Pending())
	}
	rep := svc.RunOnce()
	if rep.LogsScanned != 1 || rep.LogsRepaired != 1 || rep.LogsFailed != 0 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.RepairedBytes != 6 || rep.Cost <= 0 {
		t.Fatalf("repaired %dB cost %v", rep.RepairedBytes, rep.Cost)
	}
	if !l.FullyRedundant() || svc.Pending() != 0 {
		t.Fatal("log still stale after repair")
	}
	// Reconstruction I/O advanced the virtual clock.
	if clock.Now() < rep.Cost {
		t.Fatalf("clock %v < repair cost %v", clock.Now(), rep.Cost)
	}
	// Live accounting fully restored: 3 copies of 11 logical bytes.
	if st := p.Stats(); st.Live != 33 {
		t.Fatalf("pool live after repair: %+v", st)
	}
}

func TestRepairRelocatesOffDeadDisk(t *testing.T) {
	clock := sim.NewClock()
	p := pool.New("rp", clock, sim.NVMeSSD, 4, 1<<20)
	m := plog.NewManager(p, 1<<20)
	l, _ := m.Create(plog.ReplicateN(3))
	l.Append(make([]byte, 100))
	p.FailDisk(2)
	if _, _, err := l.Append(make([]byte, 50)); err != nil {
		t.Fatalf("degraded append: %v", err)
	}
	// The disk stays dead: repair must relocate and rebuild the whole copy.
	rep := New(clock, m).RunOnce()
	if rep.LogsRepaired != 1 || rep.RepairedBytes != 50 {
		t.Fatalf("report: %+v", rep)
	}
	if !l.FullyRedundant() {
		t.Fatal("log still stale")
	}
	if st := p.Stats(); st.Reconstructed != 150 || st.Live != 450 {
		t.Fatalf("pool accounting after relocation: %+v", st)
	}
	if got, _, err := l.Read(0, 150); err != nil || len(got) != 150 {
		t.Fatalf("read after relocation: %d bytes, %v", len(got), err)
	}
}

func TestRepairECMixedCatchUpAndRelocate(t *testing.T) {
	clock := sim.NewClock()
	p := pool.New("rp", clock, sim.NVMeSSD, 7, 1<<20)
	m := plog.NewManager(p, 1<<20)
	l, _ := m.Create(plog.EC(4, 2))
	first := make([]byte, 4000)
	for i := range first {
		first[i] = byte(i)
	}
	l.Append(first)
	// The group sits on disks 0-5; kill both parity columns' disks.
	p.FailDisk(4)
	p.FailDisk(5)
	if _, _, err := l.Append(make([]byte, 2000)); err != nil {
		t.Fatalf("degraded append at max tolerance: %v", err)
	}
	// One disk comes back (catch-up in place); the other stays dead
	// (relocate + full shard rebuild, through the real erasure decoder).
	p.ReviveDisk(5)
	rep := New(clock, m).RunOnce()
	if rep.LogsRepaired != 1 {
		t.Fatalf("report: %+v", rep)
	}
	if !l.FullyRedundant() {
		t.Fatal("log still stale")
	}
	// Full shard column for the dead disk: ceil(6000/4) = 1500 bytes;
	// catch-up for the revived one: ceil(2000/4) = 500 bytes.
	if st := p.Stats(); st.Reconstructed != 2000 {
		t.Fatalf("reconstructed %d, want 2000", st.Reconstructed)
	}
	if got, _, err := l.Read(0, 6000); err != nil || len(got) != 6000 {
		t.Fatalf("read after EC repair: %v", err)
	}
}

func TestRepairRetriesWithBackoffUnderInjectedFaults(t *testing.T) {
	clock := sim.NewClock()
	p := pool.New("rp", clock, sim.NVMeSSD, 3, 1<<20)
	in := faults.New(5)
	in.Attach(p)
	m := plog.NewManager(p, 1<<20)
	l, _ := m.Create(plog.ReplicateN(3))
	l.Append([]byte("payload"))
	in.KillDisk("rp", 1)
	if _, _, err := l.Append([]byte("-more")); err != nil {
		t.Fatalf("degraded append: %v", err)
	}
	in.ReviveDisk("rp", 1)
	// Every repair write fails: the pass must exhaust its six attempts,
	// backing off 1ms, 2ms, 4ms, 8ms, 16ms between them in virtual time
	// and not after the last, which no retry follows.
	in.SetWriteErrorRate(1)
	s := New(clock, m)
	before := clock.Now()
	rep := s.RunOnce()
	if rep.LogsFailed != 1 || rep.Attempts != maxAttempts {
		t.Fatalf("report under total failure: %+v", rep)
	}
	if want := 31 * time.Millisecond; rep.Backoff != want {
		t.Fatalf("backoff %v, want %v", rep.Backoff, want)
	}
	if got, want := clock.Now()-before, rep.Cost+rep.Backoff; got != want {
		t.Fatalf("the pass advanced the clock %v, want cost+backoff %v", got, want)
	}
	if l.FullyRedundant() {
		t.Fatal("log repaired despite injected faults")
	}
	// Faults clear; the next pass succeeds and restores redundancy.
	in.SetWriteErrorRate(0)
	total, ok := s.RunUntilRedundant(3)
	if !ok || total.LogsRepaired != 1 {
		t.Fatalf("after clearing faults: ok=%v %+v", ok, total)
	}
	st := s.Stats()
	if st.Rounds != 2 || st.Failures != 1 || st.Backoff != 31*time.Millisecond {
		t.Fatalf("cumulative stats: %+v", st)
	}
}

func TestRunUntilRedundantBoundsRounds(t *testing.T) {
	clock := sim.NewClock()
	p := pool.New("rp", clock, sim.NVMeSSD, 3, 1<<20)
	m := plog.NewManager(p, 1<<20)
	l, _ := m.Create(plog.ReplicateN(3))
	l.Append([]byte("x"))
	p.FailDisk(0)
	if _, _, err := l.Append([]byte("y")); err != nil {
		t.Fatalf("degraded append: %v", err)
	}
	// No spare disk exists to relocate onto: repair can never finish.
	rep, ok := New(clock, m).RunUntilRedundant(2)
	if ok {
		t.Fatal("reported redundant with an unrepairable log")
	}
	if rep.LogsFailed != 1 || rep.LogsRepaired != 0 {
		t.Fatalf("report: %+v", rep)
	}
}
