package faults

import (
	"errors"
	"testing"
	"time"

	"streamlake/internal/pool"
	"streamlake/internal/sim"
)

func newPool(name string, disks int) *pool.Pool {
	return pool.New(name, sim.NewClock(), sim.NVMeSSD, disks, 1<<20)
}

// allocOne allocates a single slice, a placement group of one.
func allocOne(p *pool.Pool) (*pool.Slice, error) {
	g, err := p.AllocGroup(1)
	if err != nil {
		return nil, err
	}
	return g[0], nil
}

func TestKillAndReviveDisk(t *testing.T) {
	p := newPool("ssd", 4)
	in := New(1)
	in.Attach(p)
	if err := in.KillDisk("ssd", 2); err != nil {
		t.Fatal(err)
	}
	if !p.DiskFailed(2) {
		t.Fatal("disk not failed after KillDisk")
	}
	if got := in.KilledDisks(); len(got) != 1 || got[0] != "ssd/2" {
		t.Fatalf("killed disks: %v", got)
	}
	if err := in.ReviveDisk("ssd", 2); err != nil {
		t.Fatal(err)
	}
	if p.DiskFailed(2) {
		t.Fatal("disk still failed after ReviveDisk")
	}
	if st := in.Stats(); st.Kills != 1 || st.Revives != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if err := in.KillDisk("nope", 0); err == nil {
		t.Fatal("unattached pool accepted")
	}
	if err := in.KillDisk("ssd", 99); err == nil {
		t.Fatal("out-of-range disk accepted")
	}
}

func TestTransientErrorsAreSeededDeterministic(t *testing.T) {
	run := func(seed uint64) []bool {
		p := newPool("ssd", 3)
		in := New(seed)
		in.Attach(p)
		in.SetWriteErrorRate(0.5)
		s, err := allocOne(p)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 64)
		for i := range out {
			_, werr := p.Write(s.ID, 128)
			out[i] = werr != nil
		}
		return out
	}
	a, b := run(42), run(42)
	fails := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at write %d", i)
		}
		if a[i] {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Fatalf("rate 0.5 produced %d/%d failures", fails, len(a))
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault sequences")
	}
}

func TestInjectedErrorsAndClear(t *testing.T) {
	p := newPool("ssd", 3)
	in := New(7)
	in.Attach(p)
	s, err := allocOne(p)
	if err != nil {
		t.Fatal(err)
	}
	in.SetWriteErrorRate(1)
	if _, err := p.Write(s.ID, 10); !errors.Is(err, ErrInjected) {
		t.Fatalf("write at rate 1: %v", err)
	}
	in.SetReadErrorRate(1)
	if _, err := p.Read(s.ID, 10); !errors.Is(err, ErrInjected) {
		t.Fatalf("read at rate 1: %v", err)
	}
	other := pool.DiskID(1)
	if other == s.Disk {
		other = 2
	}
	in.KillDisk("ssd", int(other))
	in.Clear()
	if _, err := p.Write(s.ID, 10); err != nil {
		t.Fatalf("write after Clear: %v", err)
	}
	if _, err := p.Read(s.ID, 10); err != nil {
		t.Fatalf("read after Clear: %v", err)
	}
	if p.DiskFailed(other) {
		t.Fatal("Clear did not revive the killed disk")
	}
	if len(in.KilledDisks()) != 0 {
		t.Fatalf("killed list after Clear: %v", in.KilledDisks())
	}
	st := in.Stats()
	if st.InjectedWriteErrors < 1 || st.InjectedReadErrors < 1 || st.Revives != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestDegradeDiskAddsLatency(t *testing.T) {
	p := newPool("ssd", 2)
	in := New(1)
	in.Attach(p)
	s, err := allocOne(p)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := p.Write(s.ID, 4096)
	const extra = 3 * time.Millisecond
	if err := in.DegradeDisk("ssd", int(s.Disk), extra); err != nil {
		t.Fatal(err)
	}
	slow, _ := p.Write(s.ID, 4096)
	if slow != base+extra {
		t.Fatalf("degraded write %v, want %v", slow, base+extra)
	}
	if err := in.DegradeDisk("ssd", int(s.Disk), 0); err != nil {
		t.Fatal(err)
	}
	back, _ := p.Write(s.ID, 4096)
	if back != base {
		t.Fatalf("write after clearing degradation %v, want %v", back, base)
	}
	if st := in.Stats(); st.InjectedLatency != extra {
		t.Fatalf("injected latency %v", st.InjectedLatency)
	}
}

func TestKillRandomDiskDeterministicAndExhaustive(t *testing.T) {
	pick := func() []int {
		p := newPool("ssd", 4)
		in := New(99)
		in.Attach(p)
		var out []int
		for i := 0; i < 4; i++ {
			d, err := in.KillRandomDisk("ssd")
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, d)
		}
		if _, err := in.KillRandomDisk("ssd"); err == nil {
			t.Fatal("kill with no healthy disk left succeeded")
		}
		return out
	}
	a, b := pick(), pick()
	seen := make(map[int]bool)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed picked different disks: %v vs %v", a, b)
		}
		if seen[a[i]] {
			t.Fatalf("disk %d killed twice: %v", a[i], a)
		}
		seen[a[i]] = true
	}
}
