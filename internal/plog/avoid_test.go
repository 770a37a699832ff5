package plog

import (
	"bytes"
	"sync"
	"testing"

	"streamlake/internal/pool"
)

// These are the suspect-node regression tests: a copy hosted on an
// avoided disk (the cluster marks suspect/dead nodes' disks avoided)
// must receive no hedge, scrub, or repair-source reads.

func readOps(p *pool.Pool, d pool.DiskID) int64 { return p.DiskStats(d).ReadOps }

func TestHedgeSkipsAvoidedCopy(t *testing.T) {
	cfg := HedgeConfig{Enabled: true, Quantile: 0.5, MinSamples: 8}
	m, l, payload := hedgeEnv(t, cfg, true)
	avoided := l.slices[1].Disk
	l.pool.SetAvoid(func(d pool.DiskID) bool { return d == avoided })
	before := readOps(l.pool, avoided)

	data, _, err := l.Read(0, int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, payload) {
		t.Fatal("read returned wrong bytes")
	}
	if st := m.HedgeStats(); st.Hedged == 0 {
		t.Fatalf("slow primary should have hedged: %+v", st)
	}
	if got := readOps(l.pool, avoided); got != before {
		t.Fatalf("hedge read the avoided copy: readOps %d -> %d", before, got)
	}
}

func TestScrubSkipsAvoidedCopy(t *testing.T) {
	m := newManager(t, 3)
	l, err := m.Create(ReplicateN(3))
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("scrub"), 1024)
	if _, _, err := l.Append(payload); err != nil {
		t.Fatal(err)
	}
	avoided := l.slices[2].Disk
	l.pool.SetAvoid(func(d pool.DiskID) bool { return d == avoided })
	before := readOps(l.pool, avoided)

	res := l.Scrub()
	if res.Bytes == 0 {
		t.Fatal("scrub verified nothing")
	}
	if got := readOps(l.pool, avoided); got != before {
		t.Fatalf("scrub read the avoided copy: readOps %d -> %d", before, got)
	}
}

func TestRepairSourceSkipsAvoidedCopy(t *testing.T) {
	m := newManager(t, 4)
	l, err := m.Create(ReplicateN(3))
	if err != nil {
		t.Fatal(err)
	}
	// Degrade copy 0 by failing its disk across an append, then revive:
	// copy 0 is stale and needs repair from copies 1 or 2.
	staleDisk := l.slices[0].Disk
	l.pool.FailDisk(staleDisk)
	payload := bytes.Repeat([]byte("repair"), 1024)
	if _, _, err := l.Append(payload); err != nil {
		t.Fatal(err)
	}
	l.pool.ReviveDisk(staleDisk)

	// Veto copy 1's disk: repair must source from copy 2 alone.
	avoided := l.slices[1].Disk
	l.pool.SetAvoid(func(d pool.DiskID) bool { return d == avoided })
	before := readOps(l.pool, avoided)

	repaired, _, err := l.RepairStale()
	if err != nil {
		t.Fatal(err)
	}
	if repaired == 0 {
		t.Fatal("nothing repaired")
	}
	if got := readOps(l.pool, avoided); got != before {
		t.Fatalf("repair sourced from the avoided copy: readOps %d -> %d", before, got)
	}

	// Sanity: the repaired copy serves correct bytes.
	data, _, err := l.Read(0, int64(len(payload)))
	if err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("post-repair read: err=%v match=%v", err, bytes.Equal(data, payload))
	}
}

func TestRepairFallsBackWhenAllSourcesAvoided(t *testing.T) {
	m := newManager(t, 4)
	l, err := m.Create(ReplicateN(3))
	if err != nil {
		t.Fatal(err)
	}
	staleDisk := l.slices[0].Disk
	l.pool.FailDisk(staleDisk)
	payload := bytes.Repeat([]byte("fallback"), 512)
	if _, _, err := l.Append(payload); err != nil {
		t.Fatal(err)
	}
	l.pool.ReviveDisk(staleDisk)

	// Every healthy source is vetoed: repair must still proceed (an
	// avoided copy beats data loss) rather than wedging the queue.
	l.pool.SetAvoid(func(d pool.DiskID) bool {
		return d == l.slices[1].Disk || d == l.slices[2].Disk
	})
	repaired, _, err := l.RepairStale()
	if err != nil {
		t.Fatalf("repair with only avoided sources: %v", err)
	}
	if repaired == 0 {
		t.Fatal("fallback repair did nothing")
	}
}

// TestAvoidFlipRace exercises concurrent avoid-hook flips against the
// hedged read path under -race: the hook is an atomic pointer, so
// readers and the flipper must not trip the race detector.
func TestAvoidFlipRace(t *testing.T) {
	cfg := HedgeConfig{Enabled: true, Quantile: 0.5, MinSamples: 8}
	_, l, payload := hedgeEnv(t, cfg, true)
	target := l.slices[1].Disk
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		on := false
		for {
			select {
			case <-stop:
				return
			default:
			}
			on = !on
			if on {
				l.pool.SetAvoid(func(d pool.DiskID) bool { return d == target })
			} else {
				l.pool.SetAvoid(func(pool.DiskID) bool { return false })
			}
		}
	}()
	for i := 0; i < 200; i++ {
		if _, _, err := l.Read(0, int64(len(payload))); err != nil {
			t.Errorf("read %d: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()
}
