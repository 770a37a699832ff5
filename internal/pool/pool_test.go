package pool

import (
	"testing"
	"testing/quick"

	"streamlake/internal/sim"
)

func newTestPool(t *testing.T, disks int) *Pool {
	t.Helper()
	return New("test", sim.NewClock(), sim.NVMeSSD, disks, 1<<20)
}

// allocOne allocates a single slice, a placement group of one.
func allocOne(p *Pool) (*Slice, error) {
	g, err := p.AllocGroup(1)
	if err != nil {
		return nil, err
	}
	return g[0], nil
}

func TestAllocBalancesAcrossDisks(t *testing.T) {
	p := newTestPool(t, 4)
	for i := 0; i < 40; i++ {
		if _, err := allocOne(p); err != nil {
			t.Fatal(err)
		}
	}
	for d := DiskID(0); d < 4; d++ {
		if used := p.DiskStats(d).Used; used != 10<<20 {
			t.Fatalf("disk %d used %d, want 10MiB (balanced)", d, used)
		}
	}
}

func TestAllocGroupDistinctDisks(t *testing.T) {
	p := newTestPool(t, 5)
	g, err := p.AllocGroup(5)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[DiskID]bool{}
	for _, s := range g {
		if seen[s.Disk] {
			t.Fatalf("placement group reused disk %d", s.Disk)
		}
		seen[s.Disk] = true
	}
	if _, err := p.AllocGroup(6); err == nil {
		t.Fatal("placement group wider than pool accepted")
	}
}

func TestAllocGroupRollsBackOnFailure(t *testing.T) {
	// A pool of 3 tiny disks: a group of 3 that cannot fit must leave no
	// partial allocations behind.
	clock := sim.NewClock()
	p := &Pool{name: "tiny", clock: clock, sliceSize: 1 << 20, slices: map[SliceID]*Slice{}}
	for i := 0; i < 3; i++ {
		spec := sim.Spec(sim.NVMeSSD)
		spec.Capacity = 1 << 20 // one slice each
		p.disks = append(p.disks, &disk{id: DiskID(i), dev: sim.NewDevice("d", spec), slices: map[SliceID]*Slice{}})
	}
	if _, err := p.AllocGroup(3); err != nil {
		t.Fatalf("first group should fit: %v", err)
	}
	if _, err := p.AllocGroup(3); err == nil {
		t.Fatal("second group cannot fit")
	}
	st := p.Stats()
	if st.SliceCount != 3 {
		t.Fatalf("rollback leaked slices: %d registered", st.SliceCount)
	}
}

func TestWriteReadAccounting(t *testing.T) {
	p := newTestPool(t, 1)
	s, _ := allocOne(p)
	d1, err := p.Write(s.ID, 4096)
	if err != nil || d1 <= 0 {
		t.Fatalf("write: %v %v", d1, err)
	}
	d2, err := p.Read(s.ID, 4096)
	if err != nil || d2 <= 0 {
		t.Fatalf("read: %v %v", d2, err)
	}
	if got := p.Stats().Live; got != 4096 {
		t.Fatalf("live = %d", got)
	}
	if _, err := p.Write(SliceID(9999), 1); err != ErrUnknownSlice {
		t.Fatalf("unknown slice write: %v", err)
	}
	if err := p.Free(s.ID); err != nil || p.Stats().SliceCount != 0 {
		t.Fatalf("free: %v, %d slices left", err, p.Stats().SliceCount)
	}
	if err := p.Free(s.ID); err != ErrUnknownSlice {
		t.Fatalf("double free: err = %v", err)
	}
}

func TestFailDiskAndRelocate(t *testing.T) {
	p := newTestPool(t, 3)
	var slices []*Slice
	for i := 0; i < 9; i++ {
		s, err := allocOne(p)
		if err != nil {
			t.Fatal(err)
		}
		p.Write(s.ID, 1<<19)
		slices = append(slices, s)
	}
	if err := p.FailDisk(0); err != nil {
		t.Fatal(err)
	}
	// Failed disk rejects I/O, until its slices move to healthy disks.
	for _, s := range slices {
		if s.Disk != 0 {
			continue
		}
		if _, err := p.Read(s.ID, 10); err != ErrDiskFailed {
			t.Fatalf("read from failed disk: %v", err)
		}
		if d, err := p.Relocate(s.ID, nil); err != nil || d == 0 {
			t.Fatalf("relocate: disk %d, %v", d, err)
		}
	}
	// All slices must be readable again, and none on disk 0.
	for _, s := range slices {
		if s.Disk == 0 {
			t.Fatal("slice still placed on failed disk")
		}
		if _, err := p.Read(s.ID, 10); err != nil {
			t.Fatalf("post-relocation read: %v", err)
		}
	}
	if st := p.Stats(); st.FailedDisks != 1 || st.Live != 9*(1<<19) {
		t.Fatalf("stats: %+v", st)
	}
}

func TestUtilization(t *testing.T) {
	var s Stats
	if s.Utilization() != 0 {
		t.Fatal("empty stats utilization")
	}
	s = Stats{Capacity: 100, Used: 91}
	if got := s.Utilization(); got != 0.91 {
		t.Fatalf("utilization = %v", got)
	}
}

func TestQuickAllocFreeInvariant(t *testing.T) {
	// Property: after any interleaving of allocs and frees, the sum of
	// per-disk used space equals sliceSize * live slice count.
	f := func(ops []bool) bool {
		p := New("q", sim.NewClock(), sim.NVMeSSD, 3, 1<<20)
		var live []SliceID
		for _, alloc := range ops {
			if alloc || len(live) == 0 {
				s, err := allocOne(p)
				if err != nil {
					return false
				}
				live = append(live, s.ID)
			} else {
				p.Free(live[len(live)-1])
				live = live[:len(live)-1]
			}
		}
		var used int64
		for d := DiskID(0); d < 3; d++ {
			used += p.DiskStats(d).Used
		}
		return used == int64(len(live))<<20 && p.Stats().SliceCount == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
