package faults

import (
	"sync"
	"testing"

	"streamlake/internal/plog"
	"streamlake/internal/pool"
)

func newLake(t *testing.T, disks int) (*pool.Pool, *plog.Manager, *Injector) {
	t.Helper()
	p := newPool("ssd", disks)
	m := plog.NewManager(p, 1<<20)
	in := New(7)
	in.Attach(p)
	if err := in.AttachCorruptor("ssd", m); err != nil {
		t.Fatal(err)
	}
	return p, m, in
}

func TestCorruptRandomThroughInjector(t *testing.T) {
	_, m, in := newLake(t, 4)
	l, err := m.Create(plog.ReplicateN(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append(make([]byte, 256)); err != nil {
		t.Fatal(err)
	}
	ev, err := in.CorruptRandom("ssd")
	if err != nil {
		t.Fatal(err)
	}
	if ev.Log != l.ID() {
		t.Fatalf("corrupted wrong log: %+v", ev)
	}
	if st := in.Stats(); st.InjectedCorruptions != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if got := in.CorruptionLog(); len(got) != 1 || got[0] != ev {
		t.Fatalf("corruption log: %v", got)
	}
	// The scrubber-side view agrees with the injector-side ground truth.
	if st := m.IntegrityStats(); st.Injected != 1 {
		t.Fatalf("plog stats: %+v", st)
	}
	if _, err := in.CorruptRandom("hdd"); err == nil {
		t.Fatal("unattached pool accepted")
	}
}

// TestBitFlipRateDeterministic drives an identical workload twice under
// a background bit-flip rate and requires the identical corruption log.
func TestBitFlipRateDeterministic(t *testing.T) {
	run := func() []plog.CorruptionEvent {
		_, m, in := newLake(t, 4)
		if err := in.SetBitFlipRate("ssd", 1e-4); err != nil {
			t.Fatal(err)
		}
		l, err := m.Create(plog.ReplicateN(3))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			if _, _, err := l.Append(make([]byte, 4096)); err != nil {
				t.Fatal(err)
			}
		}
		return in.CorruptionLog()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("bit-flip rate 1e-4 over ~600KB of writes produced no corruption")
	}
	if len(a) != len(b) {
		t.Fatalf("runs diverged: %d vs %d corruptions", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestClearSemantics pins down what Clear undoes (standing fault
// sources, including injector-killed disks and bit-flip rates) and
// what it must NOT undo (damage already planted, counters, disks
// failed directly through the pool API).
func TestClearSemantics(t *testing.T) {
	p, m, in := newLake(t, 5)
	l, err := m.Create(plog.ReplicateN(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append(make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	if err := in.KillDisk("ssd", 4); err != nil {
		t.Fatal(err)
	}
	if err := p.FailDisk(3); err != nil { // failed behind the injector's back
		t.Fatal(err)
	}
	in.SetWriteErrorRate(0.5)
	if err := in.SetBitFlipRate("ssd", 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := in.CorruptRandom("ssd"); err != nil {
		t.Fatal(err)
	}
	in.Clear()
	if p.DiskFailed(4) {
		t.Fatal("Clear did not revive the injector-killed disk")
	}
	if !p.DiskFailed(3) {
		t.Fatal("Clear revived a disk it never killed")
	}
	if len(in.KilledDisks()) != 0 {
		t.Fatalf("killed list not empty: %v", in.KilledDisks())
	}
	// Planted corruption persists as data-at-rest damage.
	if res := l.Scrub(); res.Mismatches != 1 {
		t.Fatalf("scrub after Clear: %+v", res)
	}
	if st := in.Stats(); st.InjectedCorruptions != 1 || st.Kills != 1 {
		t.Fatalf("Clear dropped counters: %+v", st)
	}
	// Rates really are zeroed: heavy writes inject nothing new.
	before := in.Stats()
	for i := 0; i < 20; i++ {
		if _, _, err := l.Append(make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	after := in.Stats()
	if after.InjectedWriteErrors != before.InjectedWriteErrors ||
		after.InjectedCorruptions != before.InjectedCorruptions {
		t.Fatalf("faults injected after Clear: %+v -> %+v", before, after)
	}
}

// TestInjectorConcurrency hammers the injector's control plane while
// pool I/O runs through its hooks — meaningful only under -race, where
// it fails on any unsynchronized state access (e.g. the old Clear()
// read of the pools map outside the lock).
func TestInjectorConcurrency(t *testing.T) {
	_, m, in := newLake(t, 6)
	if err := in.SetBitFlipRate("ssd", 1e-6); err != nil {
		t.Fatal(err)
	}
	var logs []*plog.PLog
	for i := 0; i < 4; i++ {
		l, err := m.Create(plog.ReplicateN(3))
		if err != nil {
			t.Fatal(err)
		}
		logs = append(logs, l)
	}
	const iters = 200
	var wg sync.WaitGroup
	// Writers and readers drive pool I/O through the fault hook.
	for w, l := range logs {
		wg.Add(1)
		go func(w int, l *plog.PLog) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, _, err := l.Append(make([]byte, 512)); err != nil {
					continue
				}
				l.Read(int64(i)*512, 512)
			}
		}(w, l)
	}
	// Control plane churns concurrently.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			switch i % 6 {
			case 0:
				in.KillDisk("ssd", 5)
			case 1:
				in.ReviveDisk("ssd", 5)
			case 2:
				in.SetWriteErrorRate(0.01)
			case 3:
				in.SetReadErrorRate(0.01)
			case 4:
				in.SetBitFlipRate("ssd", 1e-6)
			case 5:
				in.Clear()
			}
		}
	}()
	// Attach churns too: Clear must not touch the pools map unlocked.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			in.Attach(newPool("hdd", 2))
			in.Stats()
			in.KilledDisks()
		}
	}()
	wg.Wait()
}

func TestSetBitFlipRateUnattachedPool(t *testing.T) {
	in := New(1)
	if err := in.SetBitFlipRate("nope", 0.1); err == nil {
		t.Fatal("unattached pool accepted")
	}
	if err := in.AttachCorruptor("nope", nil); err == nil {
		t.Fatal("unattached pool accepted for corruptor")
	}
}
