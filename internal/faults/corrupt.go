package faults

import (
	"fmt"

	"streamlake/internal/plog"
	"streamlake/internal/pool"
	"streamlake/internal/sim"
)

// Corruptor is the subset of plog.Manager the injector uses to plant
// silent data corruption: a stored copy's checksum is damaged so it no
// longer matches the authoritative bytes, exactly what a latent bit
// flip on media produces. The injector never imports more of plog than
// this surface.
type Corruptor interface {
	// CorruptRandom damages one healthy extent-copy chosen uniformly by
	// rng across all logs. Returns false if nothing is corruptible.
	CorruptRandom(rng *sim.RNG) (plog.CorruptionEvent, bool)
	// CorruptRandomOnDisk is CorruptRandom restricted to copies placed
	// on one disk — the form the background bit-flip hook uses, so that
	// corruption lands on the device whose write triggered the roll.
	CorruptRandomOnDisk(d pool.DiskID, rng *sim.RNG) (plog.CorruptionEvent, bool)
}

// AttachCorruptor registers the corruption surface for an attached
// pool. Without one, bit-flip rates and CorruptRandom are inert for
// that pool.
func (in *Injector) AttachCorruptor(poolName string, c Corruptor) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if _, ok := in.pools[poolName]; !ok {
		return fmt.Errorf("faults: no pool %q attached", poolName)
	}
	in.corruptors[poolName] = c
	return nil
}

// SetBitFlipRate sets the per-byte probability that a slice write to
// the pool silently corrupts one stored extent-copy on the written
// disk. A write of n bytes corrupts with probability min(1, rate*n),
// rolled on the injector's seeded RNG, so a scenario replays
// bit-for-bit. Zero clears the rate. The damage is planted at-rest:
// clearing the rate later does not heal copies already corrupted.
func (in *Injector) SetBitFlipRate(poolName string, perByte float64) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if _, ok := in.pools[poolName]; !ok {
		return fmt.Errorf("faults: no pool %q attached", poolName)
	}
	if perByte <= 0 {
		delete(in.bitFlip, poolName)
	} else {
		in.bitFlip[poolName] = perByte
	}
	return nil
}

// CorruptRandom immediately damages one random healthy extent-copy in
// the pool — the one-shot form of silent corruption for drills.
func (in *Injector) CorruptRandom(poolName string) (plog.CorruptionEvent, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	c, ok := in.corruptors[poolName]
	if !ok {
		return plog.CorruptionEvent{}, fmt.Errorf("faults: no corruptor attached for pool %q", poolName)
	}
	ev, ok := c.CorruptRandom(in.rng)
	if !ok {
		return plog.CorruptionEvent{}, fmt.Errorf("faults: nothing corruptible in pool %q", poolName)
	}
	in.stats.InjectedCorruptions++
	in.events = append(in.events, ev)
	return ev, nil
}

// CorruptionLog returns every corruption the injector has planted, in
// order — the ground truth integration tests check the scrubber
// against.
func (in *Injector) CorruptionLog() []plog.CorruptionEvent {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]plog.CorruptionEvent(nil), in.events...)
}

// maybeBitFlip is the write-hook tail: roll the pool's bit-flip rate
// against the write size and, on a hit, corrupt a random extent-copy
// on the written disk. Caller holds in.mu. The corruptor call is made
// under in.mu deliberately: the RNG draw and the candidate pick form
// one atomic decision, so concurrent writers can't interleave rolls
// and break determinism. The corruptor itself only takes plog/pool
// locks that are never held when entering the injector, so the nesting
// cannot deadlock.
func (in *Injector) maybeBitFlip(poolName string, disk pool.DiskID, n int64) {
	rate, ok := in.bitFlip[poolName]
	if !ok || n <= 0 {
		return
	}
	p := rate * float64(n)
	if p > 1 {
		p = 1
	}
	if in.rng.Float64() >= p {
		return
	}
	c, ok := in.corruptors[poolName]
	if !ok {
		return
	}
	if ev, ok := c.CorruptRandomOnDisk(disk, in.rng); ok {
		in.stats.InjectedCorruptions++
		in.events = append(in.events, ev)
	}
}
