package cache

import (
	"strconv"
	"testing"
)

// With the cache full and the ghost list at its bound, a DRAM hit, an
// SCM hit that promotes, and a fill whose eviction demotes to SCM, drops
// SCM's oldest entry and forgets the oldest ghost allocate nothing: every
// step moves a slot between index-linked FIFOs of one slab.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	c := testCache()
	keys := make([]string, 3*ghostEntries)
	for i := range keys {
		keys[i] = "k" + strconv.Itoa(i)
	}
	data := make([]byte, 100)
	next := 1
	round := func() {
		c.Get("hot")            // a DRAM hit, mostly
		c.Put(keys[next], data) // evicts the last fill from small down to SCM
		c.Get(keys[next-1])     // that fill: an SCM hit, promoted to main
		next++
	}
	c.Put("hot", data)
	for c.Stats().GhostKeys < ghostEntries || next < ghostEntries+1000 {
		round()
	}
	before := c.Stats()
	const runs = 1000
	allocs := testing.AllocsPerRun(runs, round)
	after := c.Stats()
	d := func(a, b int64) int64 { return a - b }
	// The hot key itself is now and then destaged when every main entry
	// has been re-referenced, so some of its hits are SCM hits too.
	dram, scm := d(after.DRAMHits, before.DRAMHits), d(after.SCMHits, before.SCMHits)
	if after.Misses != before.Misses || dram < runs/2 || scm < runs+1 || dram+scm != 2*(runs+1) {
		t.Fatalf("%d DRAM hits, %d SCM hits and %d misses over %d rounds", dram, scm, after.Misses-before.Misses, runs+1)
	}
	if d(after.Demotions, before.Demotions) < runs+1 || d(after.Evictions, before.Evictions) < runs+1 {
		t.Fatalf("rounds did not run the eviction chain: %+v, then %+v", before, after)
	}
	if after.GhostKeys != ghostEntries || after.UsedDRAM < 1<<10-100 || after.UsedSCM < 4<<10-100 {
		t.Fatalf("cache not full with the ghost list at its bound: %+v", after)
	}
	if allocs != 0 {
		t.Fatalf("a hit, a promotion and an evicting fill allocate %v times, want 0", allocs)
	}
}

// InvalidatePrefix deletes while it ranges over the resident keys, so a
// table flush's manifest invalidation builds no list of victims.
func TestInvalidatePrefixAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	c := testCache()
	keys := []string{"manifest/t/0", "manifest/t/1", "manifest/t/2"}
	data := make([]byte, 10)
	c.Put("plog/1/0/10", data)
	dropped := 0
	allocs := testing.AllocsPerRun(100, func() {
		for _, k := range keys {
			c.Put(k, data)
		}
		dropped += c.InvalidatePrefix("manifest/t/")
	})
	if dropped != 101*len(keys) || !c.Contains("plog/1/0/10") {
		t.Fatalf("dropped %d of %d, the other key resident: %v", dropped, 101*len(keys), c.Contains("plog/1/0/10"))
	}
	if allocs != 0 {
		t.Fatalf("filling and invalidating three keys allocates %v times, want 0", allocs)
	}
}
