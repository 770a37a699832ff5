package plog

import (
	"bytes"
	"errors"
	"testing"

	"streamlake/internal/pool"
	"streamlake/internal/sim"
)

func poolWriteOps(p *pool.Pool, disks int) int64 {
	var total int64
	for i := 0; i < disks; i++ {
		total += p.DiskStats(pool.DiskID(i)).WriteOps
	}
	return total
}

// TestAppendBatchMatchesIndividualAppends pins the group-commit
// contract: a batch lands every payload at exactly the offsets a
// payload-at-a-time sequence would, with identical logical/physical
// accounting and bit-identical reads — only the device write-op count
// differs (one per placement copy instead of one per payload).
func TestAppendBatchMatchesIndividualAppends(t *testing.T) {
	const disks = 3
	clockA := sim.NewClock()
	pa := pool.New("one-by-one", clockA, sim.NVMeSSD, disks, 1<<20)
	ma := NewManager(pa, 1<<20)
	la, _ := ma.Create(ReplicateN(2))

	clockB := sim.NewClock()
	pb := pool.New("batched", clockB, sim.NVMeSSD, disks, 1<<20)
	mb := NewManager(pb, 1<<20)
	lb, _ := mb.Create(ReplicateN(2))

	payloads := [][]byte{
		payload(100, 1), payload(57, 2), payload(4096, 3), payload(1, 4),
	}
	var wantOffsets []int64
	for _, p := range payloads {
		off, _, err := la.Append(p)
		if err != nil {
			t.Fatal(err)
		}
		wantOffsets = append(wantOffsets, off)
	}
	gotOffsets, _, err := lb.AppendBatch(payloads, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range payloads {
		if gotOffsets[i] != wantOffsets[i] {
			t.Fatalf("offset %d: batch %d, sequential %d", i, gotOffsets[i], wantOffsets[i])
		}
		got, _, err := lb.Read(gotOffsets[i], int64(len(payloads[i])))
		if err != nil || !bytes.Equal(got, payloads[i]) {
			t.Fatalf("read payload %d after batch: %v", i, err)
		}
	}
	if la.Size() != lb.Size() {
		t.Fatalf("logical size diverged: %d vs %d", la.Size(), lb.Size())
	}
	if pa.Stats().Live != pb.Stats().Live {
		t.Fatalf("physical bytes diverged: %d vs %d", pa.Stats().Live, pb.Stats().Live)
	}
	seq, grp := poolWriteOps(pa, disks), poolWriteOps(pb, disks)
	// 4 payloads × 2 copies sequentially vs 1 commit × 2 copies batched.
	if grp*int64(len(payloads)) != seq {
		t.Fatalf("write ops: sequential %d, batched %d (want %dx reduction)", seq, grp, len(payloads))
	}
	// Only the batch coalesced; the six writes it saved are the difference.
	want := GroupCommitStats{Commits: 1, Payloads: 4, SavedDeviceWrites: seq - grp}
	if got := mb.GroupCommitStats(); got != want {
		t.Fatalf("batched group-commit stats %+v, want %+v", got, want)
	}
	if got := ma.GroupCommitStats(); got != (GroupCommitStats{}) {
		t.Fatalf("single appends counted as group commits: %+v", got)
	}
}

// A batch against a failed disk degrades exactly like single appends:
// the whole batch's physical bytes go stale on the dead copy, repair
// restores them, and every payload reads back bit-exact throughout.
func TestAppendBatchDegradedWrite(t *testing.T) {
	p, m := newTestManager(t, 4)
	l, err := m.Create(ReplicateN(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append(payload(64, 9)); err != nil {
		t.Fatal(err)
	}
	p.FailDisk(l.slices[1].Disk)
	payloads := [][]byte{payload(33, 5), payload(700, 6), payload(5, 7)}
	offs, _, err := l.AppendBatch(payloads, nil)
	if err != nil {
		t.Fatalf("degraded batch: %v", err)
	}
	if l.FullyRedundant() {
		t.Fatal("degraded batch left no stale bytes")
	}
	for i, pl := range payloads {
		if got, _, err := l.Read(offs[i], int64(len(pl))); err != nil || !bytes.Equal(got, pl) {
			t.Fatalf("degraded read %d: %v", i, err)
		}
	}
	p.ReviveDisk(l.slices[1].Disk)
	if _, _, err := l.RepairStale(); err != nil {
		t.Fatal(err)
	}
	if !l.FullyRedundant() {
		t.Fatal("repair did not restore the batch's redundancy")
	}
	for i, pl := range payloads {
		if got, _, err := l.Read(offs[i], int64(len(pl))); err != nil || !bytes.Equal(got, pl) {
			t.Fatalf("post-repair read %d: %v", i, err)
		}
	}
}

// A batch below the durability floor rolls everything back: no offsets,
// no size growth, no leaked live bytes on surviving disks.
func TestAppendBatchRollbackBeyondTolerance(t *testing.T) {
	p, m := newTestManager(t, 3)
	l, err := m.Create(EC(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append([]byte("seed")); err != nil {
		t.Fatal(err)
	}
	before := p.Stats()
	size := l.Size()
	p.FailDisk(l.slices[0].Disk)
	p.FailDisk(l.slices[1].Disk)
	_, _, err = l.AppendBatch([][]byte{payload(100, 1), payload(200, 2)}, nil)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("batch beyond tolerance: %v", err)
	}
	if l.Size() != size {
		t.Fatalf("failed batch grew the log: %d -> %d", size, l.Size())
	}
	if after := p.Stats(); after.Live != before.Live {
		t.Fatalf("failed batch leaked live bytes: %d -> %d", before.Live, after.Live)
	}
	if l.StaleBytes() != 0 {
		t.Fatalf("failed batch left stale bytes: %d", l.StaleBytes())
	}
	if st := m.GroupCommitStats(); st != (GroupCommitStats{}) {
		t.Fatalf("rolled-back batch counted as a group commit: %+v", st)
	}
}

// Oversized batches and sealed logs report the same sentinels as
// single appends so the shard space can roll the chain.
func TestAppendBatchSentinels(t *testing.T) {
	_, m := newTestManager(t, 3)
	l, _ := m.Create(ReplicateN(2))
	big := [][]byte{payload(1<<19, 1), payload(1<<19, 2), payload(1<<19, 3)}
	if _, _, err := l.AppendBatch(big, nil); !errors.Is(err, ErrFull) {
		t.Fatalf("oversized batch: %v", err)
	}
	if l.Size() != 0 {
		t.Fatal("rejected batch grew the log")
	}
	if st := m.GroupCommitStats(); st != (GroupCommitStats{}) {
		t.Fatalf("rejected batch counted as a group commit: %+v", st)
	}
	l.Seal()
	if _, _, err := l.AppendBatch([][]byte{[]byte("x")}, nil); !errors.Is(err, ErrSealed) {
		t.Fatalf("sealed batch: %v", err)
	}
}

// TestMigrateAfterDestroyRefused pins the reclaim-vs-tiering race fix:
// a tiering pass holding a stale handle to a log the reclaimer already
// destroyed must be refused — migrating would allocate a placement
// group nothing tracks and double-free slice ids.
func TestMigrateAfterDestroyRefused(t *testing.T) {
	clock := sim.NewClock()
	src := pool.New("src", clock, sim.NVMeSSD, 3, 1<<20)
	dst := pool.New("dst", clock, sim.SASHDD, 3, 1<<20)
	m := NewManager(src, 1<<20)
	l, _ := m.Create(ReplicateN(2))
	if _, _, err := l.Append(payload(256, 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Destroy(l.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Migrate(dst); err == nil {
		t.Fatal("migrate of a destroyed log succeeded")
	}
	if used := dst.Stats().Live; used != 0 {
		t.Fatalf("refused migration leaked %d bytes on the destination", used)
	}
	// Late appends and batches on the destroyed handle fail the same
	// deterministic way a sealed log does (the shard space rolls).
	if _, _, err := l.Append([]byte("late")); !errors.Is(err, ErrSealed) {
		t.Fatalf("late append: %v", err)
	}
	if _, _, err := l.AppendBatch([][]byte{[]byte("late")}, nil); !errors.Is(err, ErrSealed) {
		t.Fatalf("late batch: %v", err)
	}
}
