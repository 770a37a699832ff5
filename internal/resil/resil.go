// Package resil provides the request-resilience primitives the data
// path composes against an unreliable network: virtual-time deadlines
// carried down the stack by a request context, seeded jittered
// exponential backoff for retries, and a per-endpoint circuit breaker
// with half-open probing. Everything is measured against the simulated
// virtual clock — the request path never advances the clock itself, so
// a context tracks the virtual time a request *would* complete at
// (start + accumulated modelled cost) and deadlines are checked against
// that, keeping seeded scenarios bit-for-bit reproducible.
package resil

import (
	"errors"
	"sync"
	"time"

	"streamlake/internal/sim"
)

// Errors surfaced by the resilience layer. The gateway maps both to
// 503 + Retry-After: the client did nothing wrong, the service is
// shedding or out of time.
var (
	// ErrDeadlineExceeded reports that a request ran past its
	// virtual-time deadline. The operation may still have become durable
	// (an ambiguous timeout); idempotent retry resolves the ambiguity.
	ErrDeadlineExceeded = errors.New("resil: virtual-time deadline exceeded")
	// ErrBreakerOpen reports that the endpoint's circuit breaker is
	// shedding load instead of queueing requests behind a sick endpoint.
	ErrBreakerOpen = errors.New("resil: circuit breaker open")
)

// Ctx carries one request's resilience state down the stack: the
// absolute virtual-time deadline and the modelled cost accumulated so
// far. Each layer charges the costs it generates (bus transfer, journal
// ack, PLog read) and checks the deadline before starting work. A nil
// *Ctx is valid everywhere and means "no deadline, no tracking" — the
// same nil-receiver idiom as obs.Span.
//
// A Ctx belongs to one request on one goroutine; it is not shared.
type Ctx struct {
	deadline time.Duration // absolute virtual time; 0 = none
	start    time.Duration // virtual time the request began
	spent    time.Duration // modelled cost accumulated so far
}

// NewCtx builds a request context starting at virtual time now with the
// given timeout (<= 0 means no deadline, cost tracking only).
func NewCtx(now, timeout time.Duration) *Ctx {
	c := &Ctx{start: now}
	if timeout > 0 {
		c.deadline = now + timeout
	}
	return c
}

// Now returns the request's effective virtual time: its start plus
// every cost charged so far.
func (c *Ctx) Now() time.Duration {
	if c == nil {
		return 0
	}
	return c.start + c.spent
}

// Check reports ErrDeadlineExceeded when the request's effective time
// has passed its deadline. Nil-safe no-op.
func (c *Ctx) Check() error {
	if c == nil || c.deadline == 0 {
		return nil
	}
	if c.start+c.spent > c.deadline {
		return ErrDeadlineExceeded
	}
	return nil
}

// Charge accumulates a modelled cost onto the request and then checks
// the deadline. The charge always lands — time spent is spent even when
// it pushes the request over — so callers can report the true cost
// alongside the error. Nil-safe no-op.
func (c *Ctx) Charge(d time.Duration) error {
	if c == nil {
		return nil
	}
	if d > 0 {
		c.spent += d
	}
	return c.Check()
}

// The retry schedule matches the bus's RDMA-class timeouts: a handful
// of quick retries, jittered so synchronized retry storms decorrelate.
const (
	// MaxAttempts bounds a request's tries, the first included.
	MaxAttempts = 4
	// backoffBase is the backoff before the first retry; each further
	// retry multiplies it by backoffMultiplier, up to backoffCap.
	backoffBase       = 200 * time.Microsecond
	backoffCap        = 5 * time.Millisecond
	backoffMultiplier = 2.0
)

// Backoff returns the jittered wait before retry number attempt (0 =
// first retry). Equal jitter: half the exponential step is fixed, half
// drawn from rng, so backoff stays bounded away from zero while
// decorrelating concurrent retriers. Deterministic given the rng state.
func Backoff(attempt int, rng *sim.RNG) time.Duration {
	b := float64(backoffBase)
	for i := 0; i < attempt; i++ {
		b *= backoffMultiplier
		if b >= float64(backoffCap) {
			b = float64(backoffCap)
			break
		}
	}
	half := b / 2
	j := half
	if rng != nil {
		j = rng.Float64() * half
	}
	return time.Duration(half + j)
}

// BreakerState is the circuit breaker's position.
type BreakerState int

// Breaker states: Closed passes traffic, Open sheds it, HalfOpen lets
// one probe through to test recovery.
const (
	Closed BreakerState = iota
	Open
	HalfOpen
)

// String names the state for status displays.
func (s BreakerState) String() string {
	switch s {
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// A breaker trips after breakerThreshold failures within
// breakerWindow of virtual time and stays open for breakerCooldown
// before letting a half-open probe through.
const (
	breakerThreshold = 5
	breakerWindow    = 50 * time.Millisecond
	breakerCooldown  = 20 * time.Millisecond
)

// BreakerStats counts breaker activity.
type BreakerStats struct {
	Trips  int64 // transitions into Open
	Sheds  int64 // requests rejected while Open (or during a probe)
	Probes int64 // half-open probes admitted
}

// Breaker is a per-endpoint circuit breaker over virtual time. All
// times passed in are virtual (a request's effective now); the breaker
// never reads a clock itself. The zero Breaker is closed.
type Breaker struct {
	mu       sync.Mutex
	state    BreakerState
	fails    []time.Duration // failure times within the window
	openedAt time.Duration
	probing  bool // a half-open probe is in flight
	stats    BreakerStats
}

// Allow reports whether a request may proceed at virtual time now. Open
// breakers shed (ErrBreakerOpen) until the cooldown elapses, then admit
// exactly one half-open probe; further requests shed until the probe
// resolves via Success or Failure.
func (b *Breaker) Allow(now time.Duration) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return nil
	case Open:
		if now >= b.openedAt+breakerCooldown {
			b.state = HalfOpen
			b.probing = true
			b.stats.Probes++
			return nil
		}
		b.stats.Sheds++
		return ErrBreakerOpen
	default: // HalfOpen
		if b.probing {
			b.stats.Sheds++
			return ErrBreakerOpen
		}
		b.probing = true
		b.stats.Probes++
		return nil
	}
}

// Success reports a request that completed; a half-open probe success
// closes the breaker and clears the failure window.
func (b *Breaker) Success(now time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == HalfOpen {
		b.state = Closed
		b.probing = false
	}
	b.fails = b.fails[:0]
}

// Failure reports a failed request at virtual time now and returns
// whether this failure tripped the breaker into Open.
func (b *Breaker) Failure(now time.Duration) (tripped bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == HalfOpen {
		// The probe failed: snap back open and restart the cooldown.
		b.state = Open
		b.openedAt = now
		b.probing = false
		b.stats.Trips++
		return true
	}
	if b.state == Open {
		return false
	}
	b.fails = append(b.fails, now)
	keep := b.fails[:0]
	for _, t := range b.fails {
		if t+breakerWindow >= now {
			keep = append(keep, t)
		}
	}
	b.fails = keep
	if len(b.fails) >= breakerThreshold {
		b.state = Open
		b.openedAt = now
		b.fails = b.fails[:0]
		b.stats.Trips++
		return true
	}
	return false
}

// State returns the breaker's current position.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// RetryAfter returns how long from virtual time now until the breaker
// would admit a probe (0 when not open).
func (b *Breaker) RetryAfter(now time.Duration) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != Open {
		return 0
	}
	r := b.openedAt + breakerCooldown - now
	if r < 0 {
		return 0
	}
	return r
}

// Stats snapshots the breaker's counters.
func (b *Breaker) Stats() BreakerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}
