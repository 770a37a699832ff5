package plog

import (
	"testing"

	"streamlake/internal/pool"
)

// Each test below rebuilds a copy that had lost bytes it once held and
// checks the pool's live bytes afterwards: a rebuilt copy holds the whole
// copy, not what it held plus what it missed.

// checkLive fails unless the log is fully redundant and the pool's live
// bytes are its copies' bytes, want in all.
func checkLive(t *testing.T, l *PLog, want int64) {
	t.Helper()
	if !l.FullyRedundant() {
		t.Fatalf("still stale after repair: %+v", l.Stale())
	}
	if live, phys := l.pool.Stats().Live, l.PhysicalBytes(); live != want || phys != want {
		t.Fatalf("pool live bytes %d, log's copies %d; want %d", live, phys, want)
	}
}

// A copy staled by its node's death verdict, then rebuilt off its dead
// disk, holds 150 bytes, not 300.
func TestRepairAfterVerdictKeepsLiveBytes(t *testing.T) {
	m := newManager(t, 4)
	l, _ := m.Create(ReplicateN(3))
	l.Append(make([]byte, 150))
	dead := l.slices[2].Disk
	if got := m.MarkDisksStale(m.Pool(), map[pool.DiskID]bool{dead: true}, true); got != 150 {
		t.Fatalf("verdict staled %d bytes, want 150", got)
	}
	m.Pool().FailDisk(dead)
	if n, _, err := l.RepairStale(); err != nil || n != 150 {
		t.Fatalf("repair: n=%d err=%v", n, err)
	}
	if l.slices[2].Disk == dead {
		t.Fatal("copy not relocated off the dead disk")
	}
	checkLive(t, l, 450)
}

// A scrub-quarantined extent repaired in place adds nothing to the copy
// that held it.
func TestRepairAfterQuarantineKeepsLiveBytes(t *testing.T) {
	m := newManager(t, 3)
	l, _ := m.Create(ReplicateN(3))
	l.Append(make([]byte, 100))
	if ok, err := l.CorruptCopy(0, 0); !ok || err != nil {
		t.Fatalf("corrupt: %v %v", ok, err)
	}
	if res := l.Scrub(); res.Mismatches != 1 {
		t.Fatalf("scrub: %+v", res)
	}
	if n, _, err := l.RepairStale(); err != nil || n != 100 {
		t.Fatalf("repair: n=%d err=%v", n, err)
	}
	checkLive(t, l, 300)
}

// A copy EvacuateDisks moved, once repaired, holds its 100 bytes once.
func TestRepairAfterEvacuateKeepsLiveBytes(t *testing.T) {
	m := newManager(t, 4)
	l, _ := m.Create(ReplicateN(2))
	l.Append(make([]byte, 100))
	leaving := l.slices[1].Disk
	if moved, n := m.EvacuateDisks(m.Pool(), map[pool.DiskID]bool{leaving: true}); moved != 1 || n != 100 {
		t.Fatalf("evacuate: moved %d, %d stale bytes", moved, n)
	}
	if n, _, err := l.RepairStale(); err != nil || n != 100 {
		t.Fatalf("repair: n=%d err=%v", n, err)
	}
	checkLive(t, l, 200)
}

// Stale bytes and rebuilds follow the extents: an EC(4,2) copy of two
// 5-byte extents holds a 2-byte column of each, 4 bytes in all, not the
// 3 bytes of one 10-byte column.
func TestRepairECCountsColumnsPerExtent(t *testing.T) {
	m := newManager(t, 7)
	l, _ := m.Create(EC(4, 2))
	l.Append([]byte("abcde"))
	l.Append([]byte("fghij"))
	if live := m.Pool().Stats().Live; live != 24 {
		t.Fatalf("appends charged %d live bytes, want 24", live)
	}
	if got := m.MarkDisksStale(m.Pool(), map[pool.DiskID]bool{l.slices[5].Disk: true}, false); got != 4 {
		t.Fatalf("marked %d stale bytes, want 4", got)
	}
	if n, _, err := l.RepairStale(); err != nil || n != 4 {
		t.Fatalf("repair: n=%d err=%v", n, err)
	}
	checkLive(t, l, 24)
}
