// Package cache implements the two-tier read cache the paper's
// OceanStor substrate places in front of the SSD/HDD pools (Section
// III): a DRAM tier backed by a simulated SCM device class, so hot
// reads stop paying device cost. Admission and eviction follow the
// S3-FIFO/2Q family: new keys enter a small probationary FIFO, keys
// re-referenced there graduate to the main FIFO, and keys evicted from
// DRAM destage to the SCM tier before a bounded ghost list remembers
// them — a key that returns while ghosted is admitted straight to main.
// Every structure is a plain FIFO plus reference counters, so the cache
// is fully deterministic: no wall clock, no randomness, byte-identical
// behaviour across replays of a seeded workload.
//
// The cache stores verified bytes only — callers insert after the
// integrity layer has checksum-verified the fill — and offers prefix
// invalidation so every coherence edge (quarantine, repair rewrite,
// degraded append, tiering migration, DML commit) can drop the ranges
// it touched. A DRAM hit costs nothing (a memory copy under the
// modelled device scale); an SCM hit charges the SCM device's read
// latency; destaging to SCM charges the SCM device write in the
// background (device busy time, not requester latency).
package cache

import (
	"strings"
	"sync"
	"time"

	"streamlake/internal/obs"
	"streamlake/internal/sim"
)

// Config sizes a Cache.
type Config struct {
	// DRAMBytes caps the DRAM tier (small + main FIFOs together).
	DRAMBytes int64
	// SCMBytes caps the SCM victim tier.
	SCMBytes int64
}

const (
	// smallFrac is the fraction of DRAMBytes reserved for the
	// probationary small FIFO (the S3-FIFO split).
	smallFrac = 0.1
	// ghostEntries bounds the ghost list, in keys.
	ghostEntries = 8192
)

// tier is where an entry currently lives: the FIFO that links it.
type tier uint8

const (
	tierSmall tier = iota // DRAM probationary FIFO
	tierMain              // DRAM main FIFO
	tierSCM               // SCM victim tier
	tierGhost             // dropped: the key is remembered, the data is not
	numTiers
)

// none ends a FIFO and the free list.
const none int32 = -1

// entry is one slot of the slab: a cached object, or a ghost key.
type entry struct {
	key        string
	data       []byte
	prev, next int32 // neighbours in its tier's FIFO; next links the free list
	freq       uint8 // saturating re-reference counter (max 3, S3-FIFO style)
	tier       tier
}

// fifo is a FIFO of slab slots, head = oldest.
type fifo struct {
	head, tail int32
	n          int
}

// Stats is a point-in-time accounting snapshot.
type Stats struct {
	DRAMHits      int64
	SCMHits       int64
	Misses        int64
	Fills         int64
	FillBytes     int64
	Evictions     int64 // entries dropped from the cache entirely
	Demotions     int64 // DRAM entries destaged to the SCM tier
	Invalidations int64 // entries dropped by coherence invalidation
	BytesSaved    int64 // bytes served from cache instead of devices
	UsedDRAM      int64
	UsedSCM       int64
	EntriesDRAM   int
	EntriesSCM    int
	GhostKeys     int
}

// Cache is the two-tier read cache. All methods are safe for
// concurrent use.
//
// Its four FIFOs are lists of slots linked by index through one slab, so
// once the slab and the maps have grown, a hit, a promotion, a fill and
// every step of its eviction chain allocate nothing. A dropped entry
// becomes a ghost in its own slot. Ghost keys have a map of their own,
// so InvalidatePrefix walks only the resident keys of index.
type Cache struct {
	mu  sync.Mutex
	cfg Config
	scm *sim.Device // SCM victim tier: timing model for hits/destages

	slab  []entry
	free  int32            // first free slot, linked through next
	index map[string]int32 // resident key -> slot
	ghost map[string]int32 // ghosted key -> slot
	q     [numTiers]fifo
	used  [numTiers]int64 // bytes per tier; a ghost holds none

	stats Stats
}

// New builds a cache. Zero-byte tiers disable that tier.
func New(cfg Config) *Cache {
	c := &Cache{cfg: cfg, scm: sim.NewDeviceOf("read-cache-scm", sim.SCM)}
	c.resetLocked()
	return c
}

// SetObs registers the cache's telemetry, all read at scrape time: the
// hit/miss/eviction counters and bytes saved from Stats, and the tier
// occupancy gauges.
func (c *Cache) SetObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc(`cache_hits_total{tier="dram"}`, func() int64 { return c.Stats().DRAMHits })
	reg.CounterFunc(`cache_hits_total{tier="scm"}`, func() int64 { return c.Stats().SCMHits })
	reg.CounterFunc("cache_misses_total", func() int64 { return c.Stats().Misses })
	reg.CounterFunc("cache_fills_total", func() int64 { return c.Stats().Fills })
	reg.CounterFunc("cache_fill_bytes_total", func() int64 { return c.Stats().FillBytes })
	reg.CounterFunc("cache_evictions_total", func() int64 { return c.Stats().Evictions })
	reg.CounterFunc("cache_demotions_total", func() int64 { return c.Stats().Demotions })
	reg.CounterFunc("cache_invalidations_total", func() int64 { return c.Stats().Invalidations })
	reg.CounterFunc("cache_bytes_saved_total", func() int64 { return c.Stats().BytesSaved })
	reg.GaugeFunc(`cache_used_bytes{tier="dram"}`, func() float64 { return float64(c.Stats().UsedDRAM) })
	reg.GaugeFunc(`cache_used_bytes{tier="scm"}`, func() float64 { return float64(c.Stats().UsedSCM) })
	reg.GaugeFunc("cache_ghost_keys", func() float64 { return float64(c.Stats().GhostKeys) })
}

// Get looks key up, returning the cached bytes, the modelled lookup
// cost (zero for a DRAM hit, one SCM device read for an SCM hit), and
// whether it hit. An SCM hit promotes the entry back into DRAM's main
// FIFO — it has proven hot twice.
//
// Borrow discipline: the returned slice is shared with the cache (and
// with every other Get of the same key) — callers MUST NOT mutate it.
// Cached fills are verified reads of immutable log ranges, so sharing
// is safe and saves a copy on the hot read path.
func (c *Cache) Get(key string) ([]byte, time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[key]
	if !ok {
		c.stats.Misses++
		return nil, 0, false
	}
	e := &c.slab[i]
	if e.freq < 3 {
		e.freq++
	}
	data := e.data
	n := int64(len(data))
	c.stats.BytesSaved += n
	var cost time.Duration
	if e.tier == tierSCM {
		cost = c.scm.Read(n)
		c.stats.SCMHits++
		// Promote: SCM residency plus a re-reference means main-worthy.
		c.unlink(i)
		c.push(i, tierMain)
		c.evictDRAMLocked()
	} else {
		c.stats.DRAMHits++
	}
	return data, cost, true
}

// Contains reports whether key is resident (either tier), without
// touching frequency state or counters.
func (c *Cache) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.index[key]
	return ok
}

// Put inserts a verified fill. Admission: a key the ghost list
// remembers goes straight to the main FIFO; a cold key enters the
// probationary small FIFO. Objects larger than the DRAM tier are not
// admitted. A fill costs no foreground time: DRAM insertion is free and
// destaging is background busy time.
//
// The cache retains data itself — no defensive copy — so the caller
// must hand over bytes that stay immutable for the entry's lifetime
// (the fill path passes borrowed slices of append-only PLog streams,
// which satisfy this by construction).
func (c *Cache) Put(key string, data []byte) {
	n := int64(len(data))
	c.mu.Lock()
	defer c.mu.Unlock()
	if n == 0 || n > c.cfg.DRAMBytes {
		return
	}
	if i, ok := c.index[key]; ok {
		// Fills are verified reads of immutable ranges, so a re-fill can
		// only carry identical bytes; just count the reference.
		if e := &c.slab[i]; e.freq < 3 {
			e.freq++
		}
		return
	}
	i, ghosted := c.ghost[key]
	if ghosted {
		delete(c.ghost, key)
		c.unlink(i)
		c.slab[i].data = data
		c.push(i, tierMain)
	} else {
		i = c.alloc(key, data)
		c.push(i, tierSmall)
	}
	c.index[key] = i
	c.stats.Fills++
	c.stats.FillBytes += n
	c.evictDRAMLocked()
}

// alloc takes a free slot, or grows the slab, for a new entry.
func (c *Cache) alloc(key string, data []byte) int32 {
	if i := c.free; i != none {
		c.free = c.slab[i].next
		c.slab[i] = entry{key: key, data: data}
		return i
	}
	c.slab = append(c.slab, entry{key: key, data: data})
	return int32(len(c.slab) - 1)
}

// release returns slot i, unlinked, to the free list.
func (c *Cache) release(i int32) {
	c.slab[i] = entry{next: c.free}
	c.free = i
}

// push links slot i at the tail of tier t's FIFO.
func (c *Cache) push(i int32, t tier) {
	e, q := &c.slab[i], &c.q[t]
	e.tier, e.prev, e.next = t, q.tail, none
	if q.tail == none {
		q.head = i
	} else {
		c.slab[q.tail].next = i
	}
	q.tail = i
	q.n++
	c.used[t] += int64(len(e.data))
}

// unlink takes slot i out of its tier's FIFO.
func (c *Cache) unlink(i int32) {
	e := &c.slab[i]
	q := &c.q[e.tier]
	if e.prev == none {
		q.head = e.next
	} else {
		c.slab[e.prev].next = e.next
	}
	if e.next == none {
		q.tail = e.prev
	} else {
		c.slab[e.next].prev = e.prev
	}
	q.n--
	c.used[e.tier] -= int64(len(e.data))
}

// pop unlinks and returns the oldest slot of tier t's FIFO.
func (c *Cache) pop(t tier) int32 {
	i := c.q[t].head
	c.unlink(i)
	return i
}

// evictDRAMLocked restores the DRAM invariant: small ≤ its share and
// small+main ≤ DRAMBytes. Caller holds c.mu.
func (c *Cache) evictDRAMLocked() {
	smallCap := int64(float64(c.cfg.DRAMBytes) * smallFrac)
	for c.used[tierSmall]+c.used[tierMain] > c.cfg.DRAMBytes || c.used[tierSmall] > smallCap {
		if c.q[tierSmall].n > 0 && (c.used[tierSmall] > smallCap || c.q[tierMain].n == 0) {
			c.evictSmallLocked()
		} else if c.q[tierMain].n > 0 {
			c.evictMainLocked()
		} else {
			return
		}
	}
}

// evictSmallLocked pops the small FIFO's oldest entry: re-referenced
// entries graduate to main, one-hit wonders destage to SCM.
func (c *Cache) evictSmallLocked() {
	i := c.pop(tierSmall)
	if e := &c.slab[i]; e.freq > 1 {
		e.freq = 0
		c.push(i, tierMain)
		return
	}
	c.demoteLocked(i)
}

// evictMainLocked pops the main FIFO's oldest entry, giving recently
// re-referenced entries a second lap before destaging.
func (c *Cache) evictMainLocked() {
	// Bounded reinsertion: each resident entry is inspected at most once
	// per call, so a fully-hot main FIFO still terminates.
	for laps := c.q[tierMain].n; laps > 0; laps-- {
		i := c.pop(tierMain)
		if e := &c.slab[i]; e.freq > 0 {
			e.freq--
			c.push(i, tierMain)
			continue
		}
		c.demoteLocked(i)
		return
	}
	// Everyone was hot: evict the (now decremented) head for progress.
	c.demoteLocked(c.pop(tierMain))
}

// demoteLocked destages the DRAM-evicted, unlinked slot i to the SCM
// tier (charging the device write as background busy time) or, when it
// does not fit, drops it and remembers the key in the ghost list.
func (c *Cache) demoteLocked(i int32) {
	n := int64(len(c.slab[i].data))
	if n > c.cfg.SCMBytes {
		c.dropLocked(i)
		return
	}
	c.scm.Write(n) // destage busy time; requester is not waiting on it
	c.push(i, tierSCM)
	c.stats.Demotions++
	for c.used[tierSCM] > c.cfg.SCMBytes && c.q[tierSCM].n > 0 {
		c.dropLocked(c.pop(tierSCM))
	}
}

// dropLocked evicts the unlinked slot i from the cache entirely and
// ghosts its key in place, forgetting the oldest ghost past the bound.
// A resident key is never a ghost too: Put takes a key off the ghost
// list before admitting it.
func (c *Cache) dropLocked(i int32) {
	e := &c.slab[i]
	delete(c.index, e.key)
	c.stats.Evictions++
	e.data, e.freq = nil, 0
	c.ghost[e.key] = i
	c.push(i, tierGhost)
	for c.q[tierGhost].n > ghostEntries {
		old := c.pop(tierGhost)
		delete(c.ghost, c.slab[old].key)
		c.release(old)
	}
}

// InvalidatePrefix drops every key with the given prefix — the
// coherence edge used when a whole log or table changed under the
// cache. It returns how many entries were dropped. Invalidated keys are
// not ghosted: they must not earn re-admission credit.
func (c *Cache) InvalidatePrefix(prefix string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for k, i := range c.index {
		if strings.HasPrefix(k, prefix) {
			c.unlink(i)
			delete(c.index, k)
			c.release(i)
			n++
		}
	}
	c.stats.Invalidations += int64(n)
	return n
}

// Flush empties both tiers and the ghost list, returning how many
// entries were dropped. Statistics survive a flush.
func (c *Cache) Flush() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.index)
	c.resetLocked()
	return n
}

// resetLocked empties the slab, the maps and every FIFO.
func (c *Cache) resetLocked() {
	c.slab, c.free = nil, none
	c.index = make(map[string]int32)
	c.ghost = make(map[string]int32)
	for t := range c.q {
		c.q[t] = fifo{head: none, tail: none}
	}
	c.used = [numTiers]int64{}
}

// Stats snapshots the cache's counters and occupancy.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.UsedDRAM = c.used[tierSmall] + c.used[tierMain]
	s.UsedSCM = c.used[tierSCM]
	s.EntriesDRAM = c.q[tierSmall].n + c.q[tierMain].n
	s.EntriesSCM = c.q[tierSCM].n
	s.GhostKeys = c.q[tierGhost].n
	return s
}
