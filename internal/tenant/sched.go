package tenant

import (
	"sync"
	"time"

	"streamlake/internal/sim"
)

// Sched models weighted-fair queuing for one shared link or device. Each
// tenant gets a virtual service rate proportional to its weight; a tenant
// that offers load above its rate accumulates backlog and pays the queuing
// delay itself, while tenants within their share see an empty queue. Delays
// are computed purely from the virtual clock and the call sequence, so a
// seeded replay reproduces them bit-for-bit.
//
// When constructed with a nil Registry the Sched degrades to a single
// shared FIFO backlog per priority class draining at full link bandwidth —
// the unisolated control model, where one heavy tenant's backlog is
// inherited by everyone behind it.
type Sched struct {
	clock *sim.Clock
	reg   *Registry
	bw    float64 // link bandwidth, bytes/sec

	mu      sync.Mutex
	classes [3]*classQ
}

type classQ struct {
	// Shared-backlog mode (reg == nil).
	shared float64
	last   time.Duration

	// Isolated mode: one flow per tenant.
	flows map[string]*flow
}

type flow struct {
	backlog float64
	last    time.Duration
}

// NewSched builds a scheduler over a link of bwBps bytes/sec. reg may be
// nil, selecting the unisolated shared-queue model.
func NewSched(clock *sim.Clock, reg *Registry, bwBps int64) *Sched {
	s := &Sched{clock: clock, reg: reg, bw: float64(bwBps)}
	for i := range s.classes {
		s.classes[i] = &classQ{flows: make(map[string]*flow)}
	}
	return s
}

// Delay charges n bytes for tenant name in the given priority class and
// returns the queuing delay the send should observe. class is clamped to
// [0,2] (bus High/Normal/Low).
func (s *Sched) Delay(name string, class int, n int64) time.Duration {
	// Isolated: the system identity is exempt, so an untenanted send
	// pays this one compare and neither the clock nor the lock.
	if s == nil || s.bw <= 0 || n <= 0 || (name == "" && s.reg != nil) {
		return 0
	}
	if class < 0 {
		class = 0
	} else if class > 2 {
		class = 2
	}
	now := s.clock.Now()

	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.classes[class]

	if s.reg == nil {
		// Unisolated: everyone shares one backlog draining at full
		// bandwidth. A heavy sender's backlog delays all who follow.
		if el := now - q.last; el > 0 {
			q.shared -= float64(el) / float64(time.Second) * s.bw
			if q.shared < 0 {
				q.shared = 0
			}
		}
		q.last = now
		q.shared += float64(n)
		return time.Duration(q.shared / s.bw * float64(time.Second))
	}

	w, total, ok := s.reg.shareOf(name)
	if !ok || total <= 0 {
		return 0
	}
	rate := s.bw * float64(w) / float64(total)
	if rate <= 0 {
		return 0
	}
	f := q.flows[name]
	if f == nil {
		f = &flow{last: now}
		q.flows[name] = f
	}
	if el := now - f.last; el > 0 {
		f.backlog -= float64(el) / float64(time.Second) * rate
		if f.backlog < 0 {
			f.backlog = 0
		}
	}
	f.last = now
	f.backlog += float64(n)
	d := time.Duration(f.backlog / rate * float64(time.Second))
	s.reg.noteWFQ(name, d)
	return d
}

// Backlog reports the current queued bytes for a tenant in a class without
// charging anything (test/introspection helper).
func (s *Sched) Backlog(name string, class int) int64 {
	if s == nil || class < 0 || class > 2 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.classes[class]
	if s.reg == nil {
		return int64(q.shared)
	}
	f := q.flows[name]
	if f == nil {
		return 0
	}
	return int64(f.backlog)
}
