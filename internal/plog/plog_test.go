package plog

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"streamlake/internal/pool"
	"streamlake/internal/sim"
)

func newManager(t *testing.T, disks int) *Manager {
	t.Helper()
	p := pool.New("plogtest", sim.NewClock(), sim.NVMeSSD, disks, 1<<20)
	return NewManager(p, 1<<20) // 1 MiB logs keep tests snappy
}

func TestRedundancyPolicies(t *testing.T) {
	r3 := ReplicateN(3)
	if r3.Width() != 3 || r3.Overhead() != 3 {
		t.Fatalf("replicate(3): %+v", r3)
	}
	e := EC(4, 2)
	if e.Width() != 6 || e.Overhead() != 1.5 {
		t.Fatalf("ec(4,2): %+v", e)
	}
	// The paper's headline: EC lifts disk utilization from 33% (3x
	// replication) to 91% (EC ~ 10+1).
	if u := 1 / ReplicateN(3).Overhead(); u > 0.34 || u < 0.33 {
		t.Fatalf("replication utilization %v", u)
	}
	if u := 1 / EC(10, 1).Overhead(); u < 0.90 {
		t.Fatalf("EC utilization %v", u)
	}
}

func TestCreateValidation(t *testing.T) {
	m := newManager(t, 6)
	for _, red := range []Redundancy{ReplicateN(0), EC(0, 1), EC(1, -1), EC(200, 100), {Kind: RedundancyKind(9)}} {
		if _, err := m.Create(red); err == nil {
			t.Fatalf("invalid policy accepted: %+v", red)
		}
	}
	if _, err := m.Create(ReplicateN(7)); err == nil {
		t.Fatal("placement wider than pool accepted")
	}
}

func TestAppendReadRoundTrip(t *testing.T) {
	m := newManager(t, 3)
	l, err := m.Create(ReplicateN(3))
	if err != nil {
		t.Fatal(err)
	}
	msgs := [][]byte{[]byte("hello"), []byte("stream"), []byte("lake")}
	var offsets []int64
	for _, msg := range msgs {
		off, cost, err := l.Append(msg)
		if err != nil || cost <= 0 {
			t.Fatalf("append: off=%d cost=%v err=%v", off, cost, err)
		}
		offsets = append(offsets, off)
	}
	if offsets[0] != 0 || offsets[1] != 5 || offsets[2] != 11 {
		t.Fatalf("offsets: %v", offsets)
	}
	for i, msg := range msgs {
		got, cost, err := l.Read(offsets[i], int64(len(msg)))
		if err != nil || cost <= 0 {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("read %d: got %q", i, got)
		}
	}
}

func TestReadOutOfRange(t *testing.T) {
	m := newManager(t, 3)
	l, _ := m.Create(ReplicateN(2))
	l.Append([]byte("abc"))
	for _, tc := range []struct{ off, n int64 }{{-1, 1}, {0, 4}, {3, 1}, {0, -1}} {
		if _, _, err := l.Read(tc.off, tc.n); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("Read(%d,%d) err = %v", tc.off, tc.n, err)
		}
	}
	if _, _, err := l.Read(3, 0); err != nil { // empty read at end is legal
		t.Fatalf("empty read at end: %v", err)
	}
}

func TestSealAndCapacity(t *testing.T) {
	p := pool.New("cap", sim.NewClock(), sim.NVMeSSD, 3, 1<<20)
	m := NewManager(p, 16)
	l, _ := m.Create(ReplicateN(2))
	if _, _, err := l.Append(make([]byte, 12)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append(make([]byte, 8)); !errors.Is(err, ErrFull) {
		t.Fatalf("over-capacity append: %v", err)
	}
	if _, _, err := l.Append(make([]byte, 4)); err != nil {
		t.Fatalf("exact fill: %v", err)
	}
	l.Seal()
	if !l.Sealed() {
		t.Fatal("not sealed")
	}
	if _, _, err := l.Append([]byte("x")); !errors.Is(err, ErrSealed) {
		t.Fatalf("append to sealed: %v", err)
	}
	if _, _, err := l.Read(0, 16); err != nil {
		t.Fatalf("sealed read: %v", err)
	}
}

func TestPhysicalBytesMatchesOverhead(t *testing.T) {
	m := newManager(t, 8)
	data := make([]byte, 3000)

	rep, _ := m.Create(ReplicateN(3))
	rep.Append(data)
	if got := rep.PhysicalBytes(); got != 9000 {
		t.Fatalf("replication physical = %d, want 9000", got)
	}

	ecl, _ := m.Create(EC(4, 2))
	ecl.Append(data)
	// ceil(3000/4)=750 per shard, 6 shards = 4500 = 1.5x.
	if got := ecl.PhysicalBytes(); got != 4500 {
		t.Fatalf("EC physical = %d, want 4500", got)
	}
	if got := m.PhysicalBytes(); got != 13500 {
		t.Fatalf("manager physical = %d", got)
	}
	if got := m.LogicalBytes(); got != 6000 {
		t.Fatalf("manager logical = %d", got)
	}
}

func TestDegradedReadReplication(t *testing.T) {
	p := pool.New("deg", sim.NewClock(), sim.NVMeSSD, 3, 1<<20)
	m := NewManager(p, 1<<20)
	l, _ := m.Create(ReplicateN(3))
	l.Append([]byte("survive"))
	p.FailDisk(0)
	p.FailDisk(1)
	got, _, err := l.Read(0, 7)
	if err != nil || string(got) != "survive" {
		t.Fatalf("degraded read: %q %v", got, err)
	}
	p.FailDisk(2)
	if _, _, err := l.Read(0, 7); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("read with all replicas gone: %v", err)
	}
}

func TestDegradedReadEC(t *testing.T) {
	p := pool.New("degec", sim.NewClock(), sim.NVMeSSD, 6, 1<<20)
	m := NewManager(p, 1<<20)
	l, _ := m.Create(EC(4, 2))
	l.Append([]byte("erasure coded payload"))
	// Up to M=2 failures tolerated.
	p.FailDisk(0)
	p.FailDisk(1)
	got, _, err := l.Read(0, 21)
	if err != nil || string(got) != "erasure coded payload" {
		t.Fatalf("degraded EC read: %q %v", got, err)
	}
	p.FailDisk(2)
	if _, _, err := l.Read(0, 21); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("EC read beyond fault tolerance: %v", err)
	}
}

func TestVerifyReconstruct(t *testing.T) {
	m := newManager(t, 8)
	l, _ := m.Create(EC(5, 3))
	payload := make([]byte, 10_000)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	l.Append(payload)
	if err := l.VerifyReconstruct([]int{0, 4, 7}); err != nil {
		t.Fatalf("3 erasures within tolerance: %v", err)
	}
	if err := l.VerifyReconstruct([]int{0, 1, 2, 3}); err == nil {
		t.Fatal("4 erasures beyond tolerance reconstructed")
	}
	rep, _ := m.Create(ReplicateN(2))
	if err := rep.VerifyReconstruct(nil); err == nil {
		t.Fatal("VerifyReconstruct accepted a replicated log")
	}
}

func TestAppendRollbackLeavesAccountingUnchanged(t *testing.T) {
	p := pool.New("rollback", sim.NewClock(), sim.NVMeSSD, 3, 1<<20)
	m := NewManager(p, 1<<20)
	l, err := m.Create(EC(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append([]byte("baseline")); err != nil {
		t.Fatal(err)
	}
	before := p.Stats()
	var disks [3]sim.DeviceStats
	for i := range disks {
		disks[i] = p.DiskStats(pool.DiskID(i))
	}
	// Fail two of the three placement disks: only one shard write can
	// land, under the K=2 durability floor, so the append must fail and
	// refund the surviving write.
	p.FailDisk(l.slices[0].Disk)
	p.FailDisk(l.slices[1].Disk)
	if _, _, err := l.Append(make([]byte, 1000)); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("append beyond tolerance: %v", err)
	}
	after := p.Stats()
	if after.Live != before.Live {
		t.Fatalf("failed append leaked live bytes: %d -> %d", before.Live, after.Live)
	}
	for i := range disks {
		if got := p.DiskStats(pool.DiskID(i)); got != disks[i] {
			t.Fatalf("disk %d stats changed across failed append:\nbefore %+v\nafter  %+v", i, disks[i], got)
		}
	}
	if l.StaleBytes() != 0 {
		t.Fatalf("failed append left stale bytes: %d", l.StaleBytes())
	}
	if l.Size() != 8 {
		t.Fatalf("failed append extended the log: size %d", l.Size())
	}
}

func TestDegradedWriteReplication(t *testing.T) {
	p := pool.New("degwrite", sim.NewClock(), sim.NVMeSSD, 3, 1<<20)
	m := NewManager(p, 1<<20)
	l, _ := m.Create(ReplicateN(3))
	if _, _, err := l.Append([]byte("before-")); err != nil {
		t.Fatal(err)
	}
	p.FailDisk(l.slices[2].Disk)
	off, cost, err := l.Append([]byte("degraded"))
	if err != nil || off != 7 || cost <= 0 {
		t.Fatalf("degraded append: off=%d cost=%v err=%v", off, cost, err)
	}
	st := l.Stale()
	if len(st) != 1 || st[0].SliceIdx != 2 || st[0].Bytes != 8 {
		t.Fatalf("stale tracking: %+v", st)
	}
	if l.FullyRedundant() || l.StaleBytes() != 8 {
		t.Fatalf("redundancy state: full=%v stale=%d", l.FullyRedundant(), l.StaleBytes())
	}
	if m.DegradedCount() != 1 || m.StaleBytes() != 8 || len(m.StaleLogs()) != 1 {
		t.Fatalf("manager degraded view: count=%d stale=%d", m.DegradedCount(), m.StaleBytes())
	}
	got, _, err := l.Read(0, l.Size())
	if err != nil || string(got) != "before-degraded" {
		t.Fatalf("read after degraded write: %q %v", got, err)
	}
}

func TestDegradedAppendReadAtMaxToleranceEC(t *testing.T) {
	p := pool.New("degmax", sim.NewClock(), sim.NVMeSSD, 6, 1<<20)
	m := NewManager(p, 1<<20)
	l, _ := m.Create(EC(4, 2))
	if _, _, err := l.Append([]byte("first stripe payload")); err != nil {
		t.Fatal(err)
	}
	// Exactly M = 2 of the group's disks fail: the policy's maximum.
	p.FailDisk(l.slices[4].Disk)
	p.FailDisk(l.slices[5].Disk)
	if _, _, err := l.Append([]byte("second stripe, degraded")); err != nil {
		t.Fatalf("append at max tolerance: %v", err)
	}
	got, _, err := l.Read(0, l.Size())
	if err != nil || string(got) != "first stripe payloadsecond stripe, degraded" {
		t.Fatalf("read with exactly M failures: %q %v", got, err)
	}
	per := l.red.shardSize(int64(len("second stripe, degraded")))
	if l.StaleBytes() != 2*per {
		t.Fatalf("stale bytes = %d, want %d", l.StaleBytes(), 2*per)
	}
	// One more failure exceeds FaultTolerance: appends and reads refuse.
	p.FailDisk(l.slices[3].Disk)
	if _, _, err := l.Append([]byte("x")); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("append beyond tolerance: %v", err)
	}
	if _, _, err := l.Read(0, 1); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("read beyond tolerance: %v", err)
	}
}

func TestVerifyReconstructMaxErasures(t *testing.T) {
	m := newManager(t, 8)
	l, _ := m.Create(EC(4, 2))
	payload := make([]byte, 8191)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	l.Append(payload)
	// Every M-sized erasure pattern class: data only, parity only, mixed.
	for _, erasures := range [][]int{{0, 1}, {4, 5}, {0, 5}, {1, 4}} {
		if err := l.VerifyReconstruct(erasures); err != nil {
			t.Fatalf("max erasures %v: %v", erasures, err)
		}
	}
	if err := l.VerifyReconstruct([]int{0, 1, 2}); err == nil {
		t.Fatal("M+1 erasures reconstructed")
	}
	if err := l.VerifyReconstruct([]int{-1}); err == nil {
		t.Fatal("out-of-range erasure accepted")
	}
}

// TestVerifyReconstructPerExtent: the decode check runs on the stripes
// the log stores — one per extent, ragged and empty ones included — and
// holds every reconstructed column to the CRC its sidecar records.
func TestVerifyReconstructPerExtent(t *testing.T) {
	m := newManager(t, 8)
	l, _ := m.Create(EC(4, 2))
	for i, n := range []int{4096, 0, 1, 4097, 3, 0, 8191} {
		if _, _, err := l.Append(payload(n, byte(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	for _, erasures := range [][]int{nil, {0}, {0, 1}, {4, 5}, {3, 5}} {
		if err := l.VerifyReconstruct(erasures); err != nil {
			t.Fatalf("erasures %v: %v", erasures, err)
		}
	}
	if err := l.VerifyReconstruct([]int{0, 1, 2}); err == nil {
		t.Fatal("M+1 erasures reconstructed")
	}
	// A sidecar that disagrees with what the decode produces — data or
	// parity column, erased or not — fails the check.
	for _, c := range []struct{ ext, col int }{{3, 0}, {6, 5}, {1, 2}} {
		l.trueSums[c.ext][c.col] ^= 1
		if err := l.VerifyReconstruct([]int{0, 5}); err == nil {
			t.Fatalf("extent %d column %d: sidecar mismatch went unnoticed", c.ext, c.col)
		}
		l.trueSums[c.ext][c.col] ^= 1
	}
	// Repair's real decode walks the same stripes.
	p := l.pool
	p.FailDisk(l.slices[1].Disk)
	if _, _, err := l.Append(payload(777, 9)); err != nil {
		t.Fatal(err)
	}
	p.ReviveDisk(l.slices[1].Disk)
	if _, _, err := l.RepairStale(); err != nil || !l.FullyRedundant() {
		t.Fatalf("repair over ragged extents: err=%v redundant=%v", err, l.FullyRedundant())
	}
}

func TestRepairStaleCatchUpInPlace(t *testing.T) {
	p := pool.New("repinplace", sim.NewClock(), sim.NVMeSSD, 3, 1<<20)
	m := NewManager(p, 1<<20)
	l, _ := m.Create(ReplicateN(3))
	l.Append([]byte("hello"))
	p.FailDisk(l.slices[1].Disk)
	l.Append([]byte(" world"))
	p.ReviveDisk(l.slices[1].Disk)
	repaired, cost, err := l.RepairStale()
	if err != nil || repaired != 6 || cost <= 0 {
		t.Fatalf("repair: n=%d cost=%v err=%v", repaired, cost, err)
	}
	if !l.FullyRedundant() {
		t.Fatal("still stale after repair")
	}
	// Live accounting fully restored: 3 copies of 11 logical bytes.
	if st := p.Stats(); st.Live != 33 || st.Reconstructed != 6 {
		t.Fatalf("pool accounting after repair: %+v", st)
	}
}

func TestRepairStaleRelocatesFromDeadDisk(t *testing.T) {
	p := pool.New("reprelocate", sim.NewClock(), sim.NVMeSSD, 4, 1<<20)
	m := NewManager(p, 1<<20)
	l, _ := m.Create(ReplicateN(3))
	l.Append(make([]byte, 100))
	dead := l.slices[2].Disk
	p.FailDisk(dead)
	l.Append(make([]byte, 50))
	repaired, _, err := l.RepairStale()
	if err != nil || repaired != 50 {
		t.Fatalf("repair: n=%d err=%v", repaired, err)
	}
	if l.slices[2].Disk == dead {
		t.Fatal("slice not relocated off the dead disk")
	}
	if !l.FullyRedundant() {
		t.Fatal("still stale after relocation")
	}
	// The relocated copy is rebuilt in full: all 150 bytes.
	if st := p.Stats(); st.Reconstructed != 150 || st.Live != 450 {
		t.Fatalf("pool accounting after relocation: %+v", st)
	}
}

// TestReadBorrowDiscipline pins the zero-copy read contract: Read
// returns a read-only borrow of the extent that holds the range (two
// reads of the same range share a backing array, and the borrow stays
// intact across later appends), while a caller that must mutate copies
// first — the copy is private, so scribbling on it cannot corrupt the
// log. A caller violating the borrow contract WOULD corrupt subsequent
// reads, which is exactly what makes the no-copy hot path measurable;
// the mutation audit keeps all in-tree callers read-only.
func TestReadBorrowDiscipline(t *testing.T) {
	m := newManager(t, 3)
	l, _ := m.Create(ReplicateN(2))
	l.Append([]byte("immutable"))
	got, _, err := l.Read(0, 9)
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := l.Read(0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &again[0] {
		t.Fatal("Read copied; reads of one range should share the extent's bytes")
	}
	// The borrow is full-capped: an append through it cannot land in the
	// extent's backing array.
	if cap(got) != len(got) {
		t.Fatalf("borrow not capacity-capped: len=%d cap=%d", len(got), cap(got))
	}
	// Appends after the borrow leave it intact: each lands in an extent
	// of its own, and no extent's bytes are ever moved or rewritten.
	for i := 0; i < 64; i++ {
		if _, _, err := l.Append([]byte("growgrowgrowgrow")); err != nil {
			t.Fatal(err)
		}
	}
	if string(got) != "immutable" {
		t.Fatalf("borrow invalidated by later appends: %q", got)
	}
	// Callers that copy may mutate freely.
	cp := append([]byte(nil), got...)
	cp[0] = 'X'
	final, _, err := l.Read(0, 9)
	if err != nil || string(final) != "immutable" {
		t.Fatalf("mutating a copy corrupted the log: %q %v", final, err)
	}
}

func TestManagerLifecycle(t *testing.T) {
	m := newManager(t, 4)
	l, err := m.Create(ReplicateN(2))
	if err != nil {
		t.Fatal(err)
	}
	if m.Get(l.ID()) != l || m.Count() != 1 {
		t.Fatal("manager lost the log")
	}
	if err := m.Destroy(l.ID()); err != nil {
		t.Fatal(err)
	}
	if m.Get(l.ID()) != nil || m.Count() != 0 {
		t.Fatal("destroy left the log registered")
	}
	if err := m.Destroy(l.ID()); err == nil {
		t.Fatal("double destroy succeeded")
	}
}

func TestQuickAppendOffsetsContiguous(t *testing.T) {
	// Property: appended chunks produce contiguous offsets and read back
	// exactly, for any chunk size sequence.
	f := func(sizes []uint8) bool {
		p := pool.New("quick", sim.NewClock(), sim.NVMeSSD, 3, 1<<20)
		m := NewManager(p, 1<<20)
		l, err := m.Create(ReplicateN(2))
		if err != nil {
			return false
		}
		var want []byte
		for i, sz := range sizes {
			chunk := bytes.Repeat([]byte{byte(i)}, int(sz)+1)
			off, _, err := l.Append(chunk)
			if err != nil || off != int64(len(want)) {
				return false
			}
			want = append(want, chunk...)
		}
		got, _, err := l.Read(0, int64(len(want)))
		return err == nil && bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// VerifyReconstruct runs the repair path's erasure-decode check under
// the log's read lock.
func (l *PLog) VerifyReconstruct(erasures []int) error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.verifyReconstructLocked(erasures)
}

// Compressed reports whether the log stores compressed extents.
func (l *PLog) Compressed() bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.compressed
}
