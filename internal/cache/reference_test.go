package cache

// The cache as it stood before its FIFOs became index-linked lists over
// one slab: four container/list queues, a fresh element for every step
// an entry takes, the ghost keys boxed into a list of their own. It is
// kept verbatim, renamed, as the model FuzzCacheOps holds the cache to.

import (
	"container/list"
	"strings"
	"sync"
	"time"

	"streamlake/internal/sim"
)

// refEntry is one cached object.
type refEntry struct {
	key  string
	data []byte
	freq uint8 // saturating re-reference counter (max 3, S3-FIFO style)
	tier tier
	elem *list.Element // position in its tier's FIFO
}

// refCache is the two-tier read cache. All methods are safe for
// concurrent use.
type refCache struct {
	mu  sync.Mutex
	cfg Config
	scm *sim.Device // SCM victim tier: timing model for hits/destages

	index map[string]*refEntry
	small *list.List // *refEntry, FIFO head = oldest
	main  *list.List
	scmQ  *list.List

	ghost     map[string]*list.Element // key -> position in ghostQ
	ghostQ    *list.List               // string keys, FIFO head = oldest
	usedSmall int64
	usedMain  int64
	usedSCM   int64

	stats Stats
}

// newRef builds a cache. Zero-byte tiers disable that tier.
func newRef(cfg Config) *refCache {
	return &refCache{
		cfg:    cfg,
		scm:    sim.NewDeviceOf("read-cache-scm", sim.SCM),
		index:  make(map[string]*refEntry),
		small:  list.New(),
		main:   list.New(),
		scmQ:   list.New(),
		ghost:  make(map[string]*list.Element),
		ghostQ: list.New(),
	}
}

// Get looks key up, returning the cached bytes, the modelled lookup
// cost (zero for a DRAM hit, one SCM device read for an SCM hit), and
// whether it hit. An SCM hit promotes the refEntry back into DRAM's main
// FIFO — it has proven hot twice.
//
// Borrow discipline: the returned slice is shared with the cache (and
// with every other Get of the same key) — callers MUST NOT mutate it.
// Cached fills are verified reads of immutable log ranges, so sharing
// is safe and saves a copy on the hot read path.
func (c *refCache) Get(key string) ([]byte, time.Duration, bool) {
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
func (c *refCache) Contains(key string) bool {
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
// must hand over bytes that stay immutable for the refEntry's lifetime
// (the fill path passes borrowed slices of append-only PLog streams,
// which satisfy this by construction).
func (c *refCache) Put(key string, data []byte) {
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
	e := &refEntry{key: key, data: data}
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
func (c *refCache) evictDRAMLocked() {
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

// evictSmallLocked pops the small FIFO's oldest refEntry: re-referenced
// entries graduate to main, one-hit wonders destage to SCM.
func (c *refCache) evictSmallLocked() {
	e := c.small.Remove(c.small.Front()).(*refEntry)
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

// evictMainLocked pops the main FIFO's oldest refEntry, giving recently
// re-referenced entries a second lap before destaging.
func (c *refCache) evictMainLocked() {
	// Bounded reinsertion: each resident refEntry is inspected at most once
	// per call, so a fully-hot main FIFO still terminates.
	for laps := c.main.Len(); laps > 0; laps-- {
		e := c.main.Remove(c.main.Front()).(*refEntry)
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
	e := c.main.Remove(c.main.Front()).(*refEntry)
	c.usedMain -= int64(len(e.data))
	c.demoteLocked(e)
}

// demoteLocked destages a DRAM-evicted refEntry to the SCM tier (charging
// the device write as background busy time) or, when it does not fit,
// drops it and remembers the key in the ghost list.
func (c *refCache) demoteLocked(e *refEntry) {
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
		v := c.scmQ.Remove(c.scmQ.Front()).(*refEntry)
		c.usedSCM -= int64(len(v.data))
		c.dropLocked(v)
	}
}

// dropLocked evicts e from the cache entirely and ghosts its key.
func (c *refCache) dropLocked(e *refEntry) {
	delete(c.index, e.key)
	c.stats.Evictions++
	c.ghostAddLocked(e.key)
}

func (c *refCache) ghostAddLocked(key string) {
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
func (c *refCache) removeLocked(e *refEntry) {
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
func (c *refCache) InvalidatePrefix(prefix string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var victims []*refEntry
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
func (c *refCache) Flush() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.index)
	c.index = make(map[string]*refEntry)
	c.small.Init()
	c.main.Init()
	c.scmQ.Init()
	c.ghost = make(map[string]*list.Element)
	c.ghostQ.Init()
	c.usedSmall, c.usedMain, c.usedSCM = 0, 0, 0
	return n
}

// Stats snapshots the cache's counters and occupancy.
func (c *refCache) Stats() Stats {
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
