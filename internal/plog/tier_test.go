package plog

import (
	"bytes"
	"testing"

	"streamlake/internal/cache"
	"streamlake/internal/pool"
	"streamlake/internal/sim"
)

func newHDDPool(disks int) *pool.Pool {
	return pool.New("plogtest-hdd", sim.NewClock(), sim.SASHDD, disks, 1<<20)
}

func poolEmpty(t *testing.T, p *pool.Pool) {
	t.Helper()
	for i := 0; i < p.DiskCount(); i++ {
		if used := p.DiskStats(pool.DiskID(i)).Used; used != 0 {
			t.Fatalf("disk %d of %s still holds %d bytes", i, p.Name(), used)
		}
	}
}

func TestMigrateMovesDataAcrossPools(t *testing.T) {
	m := newManager(t, 3)
	hdd := newHDDPool(3)
	l, err := m.Create(ReplicateN(3))
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("tiering "), 512)
	if _, _, err := l.Append(payload); err != nil {
		t.Fatal(err)
	}
	cost, err := l.Migrate(hdd)
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatal("migration charged no device time")
	}
	data, _, err := l.Read(0, int64(len(payload)))
	if err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("post-migration read: %v", err)
	}
	poolEmpty(t, m.Pool()) // source slices freed
	var onHDD, want int64
	for i := 0; i < hdd.DiskCount(); i++ {
		onHDD += hdd.DiskStats(pool.DiskID(i)).Used
	}
	for _, s := range l.Placement() {
		want += s.Size
	}
	if onHDD != want {
		t.Fatalf("destination allocated %d bytes, want %d", onHDD, want)
	}
}

func TestMigrateSamePoolIsNoOp(t *testing.T) {
	m := newManager(t, 3)
	l, _ := m.Create(ReplicateN(3))
	l.Append([]byte("stay put"))
	before := l.Placement()
	cost, err := l.Migrate(m.Pool())
	if err != nil || cost != 0 {
		t.Fatalf("same-pool migrate: cost=%v err=%v", cost, err)
	}
	after := l.Placement()
	for i := range before {
		if before[i].ID != after[i].ID {
			t.Fatal("same-pool migrate reshuffled the placement group")
		}
	}
}

// The CRC sidecar is keyed by copy index, not device identity: a copy
// corrupted before migration is exactly as corrupt afterwards, and a
// scrub finds precisely that — no more, no less.
func TestMigrateCarriesCorruptSidecar(t *testing.T) {
	m := newManager(t, 3)
	hdd := newHDDPool(3)
	l, _ := m.Create(ReplicateN(3))
	payload := bytes.Repeat([]byte("sidecar "), 256)
	l.Append(payload)
	if ok, err := l.CorruptCopy(1, 0); err != nil || !ok {
		t.Fatalf("corrupt: %v %v", ok, err)
	}
	if _, err := l.Migrate(hdd); err != nil {
		t.Fatal(err)
	}
	res := l.Scrub()
	if res.Mismatches != 1 {
		t.Fatalf("scrub after migrate found %d mismatches, want exactly 1", res.Mismatches)
	}
	// The corruption is quarantined; reads still serve true bytes.
	data, _, err := l.Read(0, int64(len(payload)))
	if err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("read after quarantine: %v", err)
	}
}

// Stale holes from degraded writes stay holes on the destination; the
// repair service — not the migration — fills them, on the new pool.
func TestMigrateCarriesStaleHoles(t *testing.T) {
	m := newManager(t, 3)
	hdd := newHDDPool(3)
	l, _ := m.Create(ReplicateN(3))
	l.Append(bytes.Repeat([]byte("a"), 1024))
	bad := l.Placement()[2].Disk
	m.Pool().FailDisk(bad)
	if _, _, err := l.Append(bytes.Repeat([]byte("b"), 1024)); err != nil {
		t.Fatal(err)
	}
	stale := l.StaleBytes()
	if stale == 0 {
		t.Fatal("degraded append left nothing stale")
	}
	if _, err := l.Migrate(hdd); err != nil {
		t.Fatal(err)
	}
	if got := l.StaleBytes(); got != stale {
		t.Fatalf("migration changed stale accounting: %d -> %d", stale, got)
	}
	if repaired, _, err := l.RepairStale(); err != nil || repaired != stale {
		t.Fatalf("repair on destination pool: repaired=%d err=%v", repaired, err)
	}
	if !l.FullyRedundant() {
		t.Fatal("log not fully redundant after repair on destination")
	}
}

func TestDestroyAfterMigrateFreesOwnPool(t *testing.T) {
	m := newManager(t, 3)
	hdd := newHDDPool(3)
	l, _ := m.Create(ReplicateN(3))
	l.Append(bytes.Repeat([]byte("x"), 2048))
	if _, err := l.Migrate(hdd); err != nil {
		t.Fatal(err)
	}
	if err := m.Destroy(l.ID()); err != nil {
		t.Fatalf("destroy after migrate: %v", err)
	}
	poolEmpty(t, hdd)
	poolEmpty(t, m.Pool())
}

func TestMigrateInvalidatesCache(t *testing.T) {
	m := newManager(t, 3)
	c := cache.New(cache.Config{DRAMBytes: 64 << 10, SCMBytes: 256 << 10})
	m.SetCache(c)
	hdd := newHDDPool(3)
	l, _ := m.Create(ReplicateN(3))
	l.Append(bytes.Repeat([]byte("m"), 512))
	l.Read(0, 512)
	if !c.Contains(l.cacheKey(0, 512)) {
		t.Fatal("fill missing")
	}
	if _, err := l.Migrate(hdd); err != nil {
		t.Fatal(err)
	}
	if c.Contains(l.cacheKey(0, 512)) {
		t.Fatal("migration left ranges cached")
	}
}

// Disk-scoped corruption injection means "disk d of this manager's
// pool". A migrated log's slices live on another pool whose disks share
// the bare numeric ids; they must not be aliased as targets.
func TestCorruptRandomOnDiskSkipsMigratedLogs(t *testing.T) {
	m := newManager(t, 3)
	hdd := newHDDPool(3)
	a, _ := m.Create(ReplicateN(3))
	a.Append(bytes.Repeat([]byte("home"), 64))
	b, _ := m.Create(ReplicateN(3))
	b.Append(bytes.Repeat([]byte("away"), 64))
	if _, err := b.Migrate(hdd); err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(42)
	for d := 0; d < 3; d++ {
		for {
			if _, ok := m.CorruptRandomOnDisk(pool.DiskID(d), rng); !ok {
				break
			}
		}
	}
	if got := b.IntegrityStats().Injected; got != 0 {
		t.Fatalf("disk-scoped injection hit a migrated log %d times", got)
	}
	if got := a.IntegrityStats().Injected; got == 0 {
		t.Fatal("injection never landed on the resident log")
	}
}
