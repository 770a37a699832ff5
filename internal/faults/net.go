// The network fault plane: seeded per-link message drops, delay/jitter
// injection, and directed partitions between named endpoints. The bus
// consults it on every send (bus.NetHook), so delivery can fail or
// stall in virtual time — the substrate the resilience layer (retries,
// deadlines, breakers, hedging) is tested against. Like the disk-fault
// side of the injector, every probabilistic decision comes from a
// seeded RNG so a drop/delay schedule replays bit-for-bit.
package faults

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"streamlake/internal/sim"
)

// Errors the net plane reports for undelivered messages.
var (
	// ErrMsgDropped marks a message lost to the seeded per-link drop
	// rate. The sender sees a timeout; retrying is the correct response.
	ErrMsgDropped = errors.New("faults: message dropped by network fault plane")
	// ErrPartitioned marks a message refused by a directed partition.
	// Retrying on the same link keeps failing until the partition heals.
	ErrPartitioned = errors.New("faults: link partitioned")
)

// link is a directed endpoint pair; "*" is a wildcard on either side.
type link struct{ from, to string }

// delaySpec injects base latency plus uniform jitter in [0, jitter).
type delaySpec struct{ base, jitter time.Duration }

// NetStats counts the net plane's interventions.
type NetStats struct {
	Drops         int64
	Blocked       int64 // messages refused by a partition
	Delayed       int64 // messages that had latency injected
	DelayInjected time.Duration
}

// NetPlane holds the standing network faults for a set of named
// endpoints. Endpoint names are free-form strings; the conventions in
// this repo are "client", "worker/<id>", "gateway", and "pool/<name>".
// Lookup precedence for a (from, to) message is exact pair, then
// (from, *), then (*, to), then (*, *).
type NetPlane struct {
	mu    sync.Mutex
	rng   *sim.RNG
	drop  map[link]float64
	delay map[link]delaySpec
	part  map[link]bool
	stats NetStats

	// rules counts the standing rules of all three kinds: stored inside
	// mu by every mutator, loaded by Deliver before it takes mu.
	rules atomic.Int32
}

func (np *NetPlane) countRulesLocked() {
	np.rules.Store(int32(len(np.drop) + len(np.delay) + len(np.part)))
}

// NewNetPlane builds a net plane whose drop and jitter decisions derive
// from seed.
func NewNetPlane(seed uint64) *NetPlane {
	return &NetPlane{
		rng:   sim.NewRNG(seed),
		drop:  make(map[link]float64),
		delay: make(map[link]delaySpec),
		part:  make(map[link]bool),
	}
}

// lookupLocked resolves a directed link against a fault map using the
// wildcard precedence. Caller holds np.mu.
func lookupLocked[V any](m map[link]V, from, to string) (v V, ok bool) {
	if len(m) == 0 {
		return v, false // no rule of this kind: skip hashing four keys
	}
	for _, k := range [4]link{{from, to}, {from, "*"}, {"*", to}, {"*", "*"}} {
		if v, ok = m[k]; ok {
			return v, true
		}
	}
	return v, false
}

// Deliver decides the fate of one message of n bytes on the directed
// link from→to: blocked by a partition, dropped by the seeded drop
// rate, or delivered with injected delay. It implements bus.NetHook.
// Dropped messages still report their injected delay so the sender's
// timeout accounting sees the time the message spent in flight.
func (np *NetPlane) Deliver(from, to string, n int64) (time.Duration, error) {
	if np.rules.Load() == 0 {
		return 0, nil // nothing to look up, count or draw
	}
	np.mu.Lock()
	defer np.mu.Unlock()
	if blocked, _ := lookupLocked(np.part, from, to); blocked {
		np.stats.Blocked++
		return 0, ErrPartitioned
	}
	var d time.Duration
	if spec, ok := lookupLocked(np.delay, from, to); ok {
		d = spec.base
		if spec.jitter > 0 {
			d += time.Duration(np.rng.Int63n(int64(spec.jitter)))
		}
		if d > 0 {
			np.stats.Delayed++
			np.stats.DelayInjected += d
		}
	}
	if rate, ok := lookupLocked(np.drop, from, to); ok && rate > 0 {
		if np.rng.Float64() < rate {
			np.stats.Drops++
			return d, ErrMsgDropped
		}
	}
	return d, nil
}

// SetDropRate sets the probability in [0,1] that a message on the
// directed link from→to is silently dropped. "*" wildcards either side;
// a rate <= 0 removes the rule.
func (np *NetPlane) SetDropRate(from, to string, rate float64) {
	np.mu.Lock()
	defer np.mu.Unlock()
	defer np.countRulesLocked()
	k := link{from, to}
	if rate <= 0 {
		delete(np.drop, k)
		return
	}
	np.drop[k] = clamp01(rate)
}

// SetDelay injects base latency plus uniform jitter in [0, jitter) on
// the directed link from→to. "*" wildcards either side; base and jitter
// both <= 0 remove the rule.
func (np *NetPlane) SetDelay(from, to string, base, jitter time.Duration) {
	np.mu.Lock()
	defer np.mu.Unlock()
	defer np.countRulesLocked()
	k := link{from, to}
	if base <= 0 && jitter <= 0 {
		delete(np.delay, k)
		return
	}
	if base < 0 {
		base = 0
	}
	if jitter < 0 {
		jitter = 0
	}
	np.delay[k] = delaySpec{base: base, jitter: jitter}
}

// Partition blocks the directed link from→to. For a full partition
// between two endpoints, partition both directions.
func (np *NetPlane) Partition(from, to string) {
	np.mu.Lock()
	defer np.mu.Unlock()
	np.part[link{from, to}] = true
	np.countRulesLocked()
}

// Heal removes the directed partition from→to.
func (np *NetPlane) Heal(from, to string) {
	np.mu.Lock()
	defer np.mu.Unlock()
	delete(np.part, link{from, to})
	np.countRulesLocked()
}

// HealAll removes every partition (drop and delay rules stay).
func (np *NetPlane) HealAll() {
	np.mu.Lock()
	defer np.mu.Unlock()
	np.part = make(map[link]bool)
	np.countRulesLocked()
}

// Clear removes every standing network fault: drop rates, delays, and
// partitions. Stats are kept.
func (np *NetPlane) Clear() {
	np.mu.Lock()
	defer np.mu.Unlock()
	np.drop = make(map[link]float64)
	np.delay = make(map[link]delaySpec)
	np.part = make(map[link]bool)
	np.countRulesLocked()
}

// Stats snapshots the net plane's counters.
func (np *NetPlane) Stats() NetStats {
	np.mu.Lock()
	defer np.mu.Unlock()
	return np.stats
}

// Rules lists the standing fault rules as human-readable strings,
// sorted, for status displays.
func (np *NetPlane) Rules() []string {
	np.mu.Lock()
	defer np.mu.Unlock()
	var out []string
	for k, r := range np.drop {
		out = append(out, fmt.Sprintf("drop %s->%s %.3f", k.from, k.to, r))
	}
	for k, d := range np.delay {
		out = append(out, fmt.Sprintf("delay %s->%s %s+%s", k.from, k.to, d.base, d.jitter))
	}
	for k := range np.part {
		out = append(out, fmt.Sprintf("partition %s->%s", k.from, k.to))
	}
	sort.Strings(out)
	return out
}
