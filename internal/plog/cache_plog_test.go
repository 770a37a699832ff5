package plog

import (
	"bytes"
	"testing"

	"streamlake/internal/cache"
)

func newCachedManager(t *testing.T, disks int) (*Manager, *cache.Cache) {
	t.Helper()
	m := newManager(t, disks)
	c := cache.New(cache.Config{DRAMBytes: 256 << 10, SCMBytes: 1 << 20})
	m.SetCache(c)
	return m, c
}

// A warm read must be served from the cache at least 5x cheaper than the
// verified device read that filled it (the cache's floor; a DRAM hit is
// free in virtual time at pin time), with bytes identical to the device
// path.
func TestCachedReadHitsAfterFill(t *testing.T) {
	m, c := newCachedManager(t, 3)
	l, err := m.Create(ReplicateN(3))
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("cache me "), 256)
	if _, _, err := l.Append(payload); err != nil {
		t.Fatal(err)
	}
	n := int64(len(payload))
	cold, coldCost, err := l.Read(0, n)
	if err != nil {
		t.Fatal(err)
	}
	warm, warmCost, err := l.Read(0, n)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold, warm) || !bytes.Equal(warm, payload) {
		t.Fatal("warm read differs from cold read")
	}
	if warmCost*5 > coldCost {
		t.Fatalf("warm read not 5x under cold: cold=%v warm=%v", coldCost, warmCost)
	}
	t.Logf("read of %d bytes: cold=%v warm=%v", n, coldCost, warmCost)
	st := c.Stats()
	if st.DRAMHits+st.SCMHits != 1 || st.Fills != 1 {
		t.Fatalf("cache stats: %+v", st)
	}
	// Device accounting: the warm read charged no pool device.
	disk := l.Placement()[0].Disk
	ops := l.pool.DiskStats(disk).ReadOps
	if _, _, err := l.Read(0, n); err != nil {
		t.Fatal(err)
	}
	if got := l.pool.DiskStats(disk).ReadOps; got != ops {
		t.Fatalf("warm read charged the device: %d -> %d ops", ops, got)
	}
}

// Quarantining a copy must invalidate the log's cached ranges, and the
// next read must re-verify against the devices.
func TestCacheInvalidatedOnQuarantine(t *testing.T) {
	m, c := newCachedManager(t, 3)
	l, _ := m.Create(ReplicateN(3))
	payload := bytes.Repeat([]byte("q"), 4096)
	l.Append(payload)
	if _, _, err := l.Read(0, 4096); err != nil {
		t.Fatal(err)
	}
	if !c.Contains(l.cacheKey(0, 4096)) {
		t.Fatal("fill missing after cold read")
	}
	if ok, err := l.CorruptCopy(0, 0); err != nil || !ok {
		t.Fatalf("corrupt: %v %v", ok, err)
	}
	// A direct (uncached) read detects the corruption and quarantines.
	if _, _, err := l.ReadDirect(0, 4096); err != nil {
		t.Fatal(err)
	}
	if c.Contains(l.cacheKey(0, 4096)) {
		t.Fatal("quarantine left stale ranges cached")
	}
	data, _, err := l.Read(0, 4096)
	if err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("post-quarantine read: %v", err)
	}
}

// Degraded appends and repair rewrites are invalidation edges too.
func TestCacheInvalidatedOnDegradedAppendAndRepair(t *testing.T) {
	m, c := newCachedManager(t, 3)
	l, _ := m.Create(ReplicateN(3))
	payload := bytes.Repeat([]byte("x"), 2048)
	l.Append(payload)
	l.Read(0, 2048)
	if !c.Contains(l.cacheKey(0, 2048)) {
		t.Fatal("fill missing")
	}
	l.pool.FailDisk(l.Placement()[2].Disk)
	if _, _, err := l.Append(payload); err != nil {
		t.Fatal(err)
	}
	if c.Contains(l.cacheKey(0, 2048)) {
		t.Fatal("degraded append left ranges cached")
	}
	l.Read(0, 2048)
	l.pool.ReviveDisk(l.Placement()[2].Disk)
	if _, _, err := l.RepairStale(); err != nil {
		t.Fatal(err)
	}
	if c.Contains(l.cacheKey(0, 2048)) {
		t.Fatal("repair rewrite left ranges cached")
	}
}

// Destroying a log reclaims its cache space.
func TestCacheInvalidatedOnDestroy(t *testing.T) {
	m, c := newCachedManager(t, 3)
	l, _ := m.Create(ReplicateN(3))
	l.Append(bytes.Repeat([]byte("d"), 256))
	l.Read(0, 256)
	key := l.cacheKey(0, 256)
	if !c.Contains(key) {
		t.Fatal("fill missing")
	}
	if err := m.Destroy(l.ID()); err != nil {
		t.Fatal(err)
	}
	if c.Contains(key) {
		t.Fatal("destroy left orphan ranges cached")
	}
}
