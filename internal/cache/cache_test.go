package cache

import (
	"fmt"
	"testing"

	"streamlake/internal/obs"
	"streamlake/internal/sim"
)

func testCache() *Cache {
	return New(Config{DRAMBytes: 1 << 10, SCMBytes: 4 << 10})
}

// tierOf reports the tier of key's slot and whether key is resident.
func tierOf(c *Cache, key string) (tier, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[key]
	if !ok {
		return 0, false
	}
	return c.slab[i].tier, true
}

func TestMissThenHit(t *testing.T) {
	c := testCache()
	if _, _, ok := c.Get("k"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("k", []byte("hello"))
	got, cost, ok := c.Get("k")
	if !ok || string(got) != "hello" {
		t.Fatalf("get after put: %q ok=%v", got, ok)
	}
	if cost != 0 {
		t.Fatalf("DRAM hit charged %v", cost)
	}
	st := c.Stats()
	if st.DRAMHits != 1 || st.Misses != 1 || st.Fills != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestGetSharesImmutableBytes pins the zero-copy borrow contract: Get
// returns the cache's own slice (no per-hit copy), so every hit of one
// key observes the same backing array. The fill path only inserts
// verified reads of immutable log ranges, which is what makes sharing
// safe.
func TestGetSharesImmutableBytes(t *testing.T) {
	c := testCache()
	c.Put("k", []byte("abc"))
	got, _, _ := c.Get("k")
	again, _, _ := c.Get("k")
	if len(got) == 0 || len(again) == 0 || &got[0] != &again[0] {
		t.Fatal("Get copied the cached bytes; hits should share the fill's slice")
	}
	if string(got) != "abc" {
		t.Fatalf("got %q", got)
	}
}

func TestOversizedObjectNotAdmitted(t *testing.T) {
	c := testCache()
	c.Put("big", make([]byte, 2<<10)) // larger than DRAM tier
	if c.Contains("big") {
		t.Fatal("oversized object admitted")
	}
}

// One-hit wonders must not wash the hot set out of DRAM: after a cold
// scan twice the DRAM size, an entry that is re-read throughout stays
// resident in DRAM.
func TestScanResistance(t *testing.T) {
	c := testCache()
	c.Put("hot", make([]byte, 64))
	for i := 0; i < 32; i++ {
		if _, _, ok := c.Get("hot"); !ok {
			t.Fatalf("hot key lost before scan, i=%d", i)
		}
		c.Put(fmt.Sprintf("cold%d", i), make([]byte, 64)) // 32*64 = 2× DRAM
	}
	if _, _, ok := c.Get("hot"); !ok {
		t.Fatal("scan evicted the hot set from the cache")
	}
}

// DRAM-evicted entries land in the SCM tier and hits there charge the
// SCM device and promote back to DRAM.
func TestDemotionToSCMAndPromotion(t *testing.T) {
	c := testCache()
	// Fill far past DRAM so early entries destage.
	for i := 0; i < 24; i++ {
		c.Put(fmt.Sprintf("k%d", i), make([]byte, 100))
	}
	st := c.Stats()
	if st.Demotions == 0 || st.EntriesSCM == 0 {
		t.Fatalf("nothing destaged to SCM: %+v", st)
	}
	if st.UsedDRAM > 1<<10 || st.UsedSCM > 4<<10 {
		t.Fatalf("tier over capacity: %+v", st)
	}
	// Find an SCM resident and hit it.
	var key string
	for i := 0; i < 24; i++ {
		k := fmt.Sprintf("k%d", i)
		if tr, ok := tierOf(c, k); ok && tr == tierSCM {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no SCM-resident entry found")
	}
	_, cost, ok := c.Get(key)
	if !ok || cost <= 0 {
		t.Fatalf("SCM hit: ok=%v cost=%v (want device-charged hit)", ok, cost)
	}
	if got := c.Stats(); got.SCMHits != 1 {
		t.Fatalf("SCM hit not counted: %+v", got)
	}
}

// A key evicted all the way out is remembered by the ghost list and
// readmitted straight to the main FIFO.
func TestGhostReadmission(t *testing.T) {
	c := New(Config{DRAMBytes: 512, SCMBytes: 512})
	c.Put("victim", make([]byte, 128))
	// Push victim out of DRAM and then out of SCM.
	for i := 0; i < 16; i++ {
		c.Put(fmt.Sprintf("f%d", i), make([]byte, 128))
	}
	if c.Contains("victim") {
		t.Fatal("victim still resident; workload too small")
	}
	if c.Stats().GhostKeys == 0 {
		t.Fatal("no ghost keys recorded")
	}
	c.Put("victim", make([]byte, 128))
	if tr, ok := tierOf(c, "victim"); !ok || tr != tierMain {
		t.Fatalf("ghosted key not readmitted to main: tier %d, resident %v", tr, ok)
	}
}

// The ghost list remembers at most ghostEntries keys: once more keys
// than that have been evicted, the oldest ghosts are forgotten and
// return probationary, while recent ones still readmit to main.
func TestGhostListBounded(t *testing.T) {
	c := testCache()
	const keys = ghostEntries + 1000
	for i := 0; i < keys; i++ {
		c.Put(fmt.Sprintf("k%d", i), make([]byte, 100))
	}
	if got := c.Stats().GhostKeys; got != ghostEntries {
		t.Fatalf("ghost list holds %d keys, want the bound %d", got, ghostEntries)
	}
	refill := func(key string) tier {
		c.Put(key, make([]byte, 100))
		tr, _ := tierOf(c, key)
		return tr
	}
	if got := refill("k0"); got != tierSmall {
		t.Fatalf("forgotten ghost readmitted to tier %d, want small", got)
	}
	if got := refill(fmt.Sprintf("k%d", keys-100)); got != tierMain {
		t.Fatalf("recent ghost readmitted to tier %d, want main", got)
	}
}

func TestInvalidate(t *testing.T) {
	c := testCache()
	c.Put("a/1", []byte("x"))
	c.Put("a/2", []byte("y"))
	c.Put("b/1", []byte("z"))
	if c.InvalidatePrefix("a/1") != 1 {
		t.Fatal("invalidate missed resident key")
	}
	if c.InvalidatePrefix("a/1") != 0 {
		t.Fatal("double invalidate reported resident")
	}
	if n := c.InvalidatePrefix("a/"); n != 1 {
		t.Fatalf("prefix invalidation dropped %d, want 1", n)
	}
	if c.Contains("a/2") || !c.Contains("b/1") {
		t.Fatal("prefix invalidation scope wrong")
	}
	// Invalidated keys earn no ghost credit: a re-fill is probationary.
	c.Put("a/1", []byte("x"))
	if tr, _ := tierOf(c, "a/1"); tr != tierSmall {
		t.Fatalf("invalidated key readmitted to tier %d, want small", tr)
	}
}

func TestFlush(t *testing.T) {
	c := testCache()
	c.Put("a", []byte("x"))
	c.Put("b", []byte("y"))
	if n := c.Flush(); n != 2 {
		t.Fatalf("flush dropped %d, want 2", n)
	}
	st := c.Stats()
	if st.UsedDRAM != 0 || st.UsedSCM != 0 || st.EntriesDRAM != 0 || st.EntriesSCM != 0 {
		t.Fatalf("state survived flush: %+v", st)
	}
	if st.Fills != 2 {
		t.Fatal("stats should survive flush")
	}
}

// The cache must be deterministic: the same operation sequence yields
// the same stats, residency, and device accounting.
func TestDeterministicReplay(t *testing.T) {
	run := func() (Stats, int64) {
		c := New(Config{DRAMBytes: 1 << 10, SCMBytes: 2 << 10})
		rng := sim.NewRNG(42)
		for i := 0; i < 2000; i++ {
			k := fmt.Sprintf("k%d", rng.Intn(64))
			if _, _, ok := c.Get(k); !ok {
				c.Put(k, make([]byte, 32+rng.Intn(96)))
			}
			if rng.Intn(50) == 0 {
				c.InvalidatePrefix("k1")
			}
		}
		return c.Stats(), c.scm.Used()
	}
	s1, u1 := run()
	s2, u2 := run()
	if s1 != s2 || u1 != u2 {
		t.Fatalf("replay diverged:\n%+v used=%d\n%+v used=%d", s1, u1, s2, u2)
	}
}

func TestObsWiring(t *testing.T) {
	reg := obs.NewRegistry(sim.NewClock())
	c := testCache()
	c.SetObs(reg)
	c.Put("k", []byte("hello"))
	c.Get("k")
	c.Get("nope")
	snap := reg.Snapshot()
	if snap.Counters[`cache_hits_total{tier="dram"}`] != 1 {
		t.Fatalf("dram hit counter: %+v", snap.Counters)
	}
	if snap.Counters["cache_misses_total"] != 1 || snap.Counters["cache_fills_total"] != 1 {
		t.Fatalf("miss/fill counters: %+v", snap.Counters)
	}
	if snap.Counters["cache_bytes_saved_total"] != 5 {
		t.Fatalf("bytes saved: %+v", snap.Counters)
	}
}

func TestNilObsIsNoOp(t *testing.T) {
	c := testCache()
	c.SetObs(nil)
	c.Put("k", []byte("x"))
	if _, _, ok := c.Get("k"); !ok {
		t.Fatal("cache broken under nil registry")
	}
}
