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
	"container/list"
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

// tier is where an entry currently lives.
type tier int

const (
	tierSmall tier = iota // DRAM probationary FIFO
	tierMain              // DRAM main FIFO
	tierSCM               // SCM victim tier
)

// entry is one cached object.
type entry struct {
	key  string
	data []byte
	freq uint8 // saturating re-reference counter (max 3, S3-FIFO style)
	tier tier
	elem *list.Element // position in its tier's FIFO
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
type Cache struct {
	mu  sync.Mutex
	cfg Config
	scm *sim.Device // SCM victim tier: timing model for hits/destages

	index map[string]*entry
	small *list.List // *entry, FIFO head = oldest
	main  *list.List
	scmQ  *list.List

	ghost     map[string]*list.Element // key -> position in ghostQ
	ghostQ    *list.List               // string keys, FIFO head = oldest
	usedSmall int64
	usedMain  int64
	usedSCM   int64

	stats Stats
}

// New builds a cache. Zero-byte tiers disable that tier.
func New(cfg Config) *Cache {
	return &Cache{
		cfg:    cfg,
		scm:    sim.NewDeviceOf("read-cache-scm", sim.SCM),
		index:  make(map[string]*entry),
		small:  list.New(),
		main:   list.New(),
		scmQ:   list.New(),
		ghost:  make(map[string]*list.Element),
		ghostQ: list.New(),
	}
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
	e, ok := c.index[key]
	if !ok {
		c.stats.Misses++
		return nil, 0, false
	}
	if e.freq < 3 {
		e.freq++
	}
	n := int64(len(e.data))
	c.stats.BytesSaved += n
	var cost time.Duration
	if e.tier == tierSCM {
		cost = c.scm.Read(n)
		c.stats.SCMHits++
		// Promote: SCM residency plus a re-reference means main-worthy.
		c.scmQ.Remove(e.elem)
		c.usedSCM -= n
		e.tier = tierMain
		e.elem = c.main.PushBack(e)
		c.usedMain += n
		c.evictDRAMLocked()
	} else {
		c.stats.DRAMHits++
	}
	return e.data, cost, true
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
	if e, ok := c.index[key]; ok {
		// Fills are verified reads of immutable ranges, so a re-fill can
		// only carry identical bytes; just count the reference.
		if e.freq < 3 {
			e.freq++
		}
		return
	}
	e := &entry{key: key, data: data}
	if el, ghosted := c.ghost[key]; ghosted {
		c.ghostQ.Remove(el)
		delete(c.ghost, key)
		e.tier = tierMain
		e.elem = c.main.PushBack(e)
		c.usedMain += n
	} else {
		e.tier = tierSmall
		e.elem = c.small.PushBack(e)
		c.usedSmall += n
	}
	c.index[key] = e
	c.stats.Fills++
	c.stats.FillBytes += n
	c.evictDRAMLocked()
}

// evictDRAMLocked restores the DRAM invariant: small ≤ its share and
// small+main ≤ DRAMBytes. Caller holds c.mu.
func (c *Cache) evictDRAMLocked() {
	smallCap := int64(float64(c.cfg.DRAMBytes) * smallFrac)
	for c.usedSmall+c.usedMain > c.cfg.DRAMBytes || c.usedSmall > smallCap {
		if c.small.Len() > 0 && (c.usedSmall > smallCap || c.main.Len() == 0) {
			c.evictSmallLocked()
		} else if c.main.Len() > 0 {
			c.evictMainLocked()
		} else {
			return
		}
	}
}

// evictSmallLocked pops the small FIFO's oldest entry: re-referenced
// entries graduate to main, one-hit wonders destage to SCM.
func (c *Cache) evictSmallLocked() {
	e := c.small.Remove(c.small.Front()).(*entry)
	c.usedSmall -= int64(len(e.data))
	if e.freq > 1 {
		e.freq = 0
		e.tier = tierMain
		e.elem = c.main.PushBack(e)
		c.usedMain += int64(len(e.data))
		return
	}
	c.demoteLocked(e)
}

// evictMainLocked pops the main FIFO's oldest entry, giving recently
// re-referenced entries a second lap before destaging.
func (c *Cache) evictMainLocked() {
	// Bounded reinsertion: each resident entry is inspected at most once
	// per call, so a fully-hot main FIFO still terminates.
	for laps := c.main.Len(); laps > 0; laps-- {
		e := c.main.Remove(c.main.Front()).(*entry)
		if e.freq > 0 {
			e.freq--
			e.elem = c.main.PushBack(e)
			continue
		}
		c.usedMain -= int64(len(e.data))
		c.demoteLocked(e)
		return
	}
	// Everyone was hot: evict the (now decremented) head for progress.
	e := c.main.Remove(c.main.Front()).(*entry)
	c.usedMain -= int64(len(e.data))
	c.demoteLocked(e)
}

// demoteLocked destages a DRAM-evicted entry to the SCM tier (charging
// the device write as background busy time) or, when it does not fit,
// drops it and remembers the key in the ghost list.
func (c *Cache) demoteLocked(e *entry) {
	n := int64(len(e.data))
	if n > c.cfg.SCMBytes {
		c.dropLocked(e)
		return
	}
	c.scm.Write(n) // destage busy time; requester is not waiting on it
	e.tier = tierSCM
	e.elem = c.scmQ.PushBack(e)
	c.usedSCM += n
	c.stats.Demotions++
	for c.usedSCM > c.cfg.SCMBytes && c.scmQ.Len() > 0 {
		v := c.scmQ.Remove(c.scmQ.Front()).(*entry)
		c.usedSCM -= int64(len(v.data))
		c.dropLocked(v)
	}
}

// dropLocked evicts e from the cache entirely and ghosts its key.
func (c *Cache) dropLocked(e *entry) {
	delete(c.index, e.key)
	c.stats.Evictions++
	c.ghostAddLocked(e.key)
}

func (c *Cache) ghostAddLocked(key string) {
	if _, ok := c.ghost[key]; ok {
		return
	}
	c.ghost[key] = c.ghostQ.PushBack(key)
	for c.ghostQ.Len() > ghostEntries {
		old := c.ghostQ.Remove(c.ghostQ.Front()).(string)
		delete(c.ghost, old)
	}
}

// removeLocked detaches e from whatever tier holds it, without
// ghosting (invalidated keys must not earn re-admission credit).
func (c *Cache) removeLocked(e *entry) {
	n := int64(len(e.data))
	switch e.tier {
	case tierSmall:
		c.small.Remove(e.elem)
		c.usedSmall -= n
	case tierMain:
		c.main.Remove(e.elem)
		c.usedMain -= n
	case tierSCM:
		c.scmQ.Remove(e.elem)
		c.usedSCM -= n
	}
	delete(c.index, e.key)
}

// InvalidatePrefix drops every key with the given prefix — the
// coherence edge used when a whole log or table changed under the
// cache. It returns how many entries were dropped.
func (c *Cache) InvalidatePrefix(prefix string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var victims []*entry
	for k, e := range c.index {
		if strings.HasPrefix(k, prefix) {
			victims = append(victims, e)
		}
	}
	for _, e := range victims {
		c.removeLocked(e)
	}
	n := len(victims)
	c.stats.Invalidations += int64(n)
	return n
}

// Flush empties both tiers and the ghost list, returning how many
// entries were dropped. Statistics survive a flush.
func (c *Cache) Flush() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.index)
	c.index = make(map[string]*entry)
	c.small.Init()
	c.main.Init()
	c.scmQ.Init()
	c.ghost = make(map[string]*list.Element)
	c.ghostQ.Init()
	c.usedSmall, c.usedMain, c.usedSCM = 0, 0, 0
	return n
}

// Stats snapshots the cache's counters and occupancy.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.UsedDRAM = c.usedSmall + c.usedMain
	s.UsedSCM = c.usedSCM
	s.EntriesDRAM = c.small.Len() + c.main.Len()
	s.EntriesSCM = c.scmQ.Len()
	s.GhostKeys = c.ghostQ.Len()
	return s
}
