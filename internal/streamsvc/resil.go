package streamsvc

import (
	"errors"
	"sort"
	"strconv"
	"time"

	"streamlake/internal/bus"
	"streamlake/internal/resil"
)

// ErrRetriesExhausted reports that a produce burned every attempt its
// retry policy allowed and still could not reach the worker. Like the
// resil errors, it means the service (not the request) is unhealthy, so
// the gateway maps it to 503.
var ErrRetriesExhausted = errors.New("retries exhausted")

// ackBytes is the modelled size of a produce acknowledgement on the
// reverse link.
const ackBytes = 64

// workerEndpoint names a stream worker on the network fault plane; the
// client side of every produce link is "client".
func workerEndpoint(id int) string { return "worker/" + strconv.Itoa(id) }

// SetNet installs the network fault hook on every worker bus, present
// and future: workers created by later rescales inherit it. Each worker
// sends as endpoint "worker/<id>", so directed partitions and per-link
// drop rates can target individual workers.
func (s *Service) SetNet(h bus.NetHook) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.netHook = h
	for _, w := range s.workers {
		w.bus.SetNet(h, w.ep)
	}
}

// SetResilience seeds the produce path's resilience machinery: seeded
// jittered retries over the fallible network links (resil.Backoff),
// modelled acknowledgements on the reverse link, and a circuit breaker
// per stream-worker endpoint. The same seed replays the same backoff
// schedule. Every service runs the machinery, seeded 0 until this call;
// existing breaker state is reset.
func (s *Service) SetResilience(seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.backoffSeed = seed
	s.breakers = make(map[string]*resil.Breaker)
	for _, w := range s.workers {
		w.breaker.Store(nil)
	}
	s.publishLocked()
}

// breakerFor returns the circuit breaker guarding a worker's endpoint,
// creating it on first use. Breakers are keyed by endpoint name, not by
// worker object, so they survive fleet rescales: a rebuilt "worker/0"
// inherits the old one's open/closed state, which is what a client-side
// breaker observing a named endpoint would do. The worker remembers the
// answer, so only its first send pays the lock and the map probe.
func (s *Service) breakerFor(w *Worker) *resil.Breaker {
	if b := w.breaker.Load(); b != nil {
		return b
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.breakers[w.ep]
	if b == nil {
		b = new(resil.Breaker)
		s.breakers[w.ep] = b
	}
	w.breaker.Store(b)
	return b
}

// BreakerStates snapshots each tracked endpoint's breaker position for
// status displays, sorted by endpoint name.
func (s *Service) BreakerStates() []EndpointBreaker {
	s.mu.Lock()
	eps := make([]string, 0, len(s.breakers))
	for ep := range s.breakers {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	out := make([]EndpointBreaker, 0, len(eps))
	for _, ep := range eps {
		b := s.breakers[ep]
		out = append(out, EndpointBreaker{Endpoint: ep, State: b.State(), Stats: b.Stats()})
	}
	s.mu.Unlock()
	return out
}

// EndpointBreaker is one endpoint's breaker snapshot.
type EndpointBreaker struct {
	Endpoint string
	State    resil.BreakerState
	Stats    resil.BreakerStats
}

// RetryAfter returns the longest cooldown any open breaker still has to
// serve at virtual time now — the gateway's Retry-After hint. Zero when
// no breaker is open.
func (s *Service) RetryAfter(now time.Duration) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	var max time.Duration
	for _, b := range s.breakers {
		if r := b.RetryAfter(now); r > max {
			max = r
		}
	}
	return max
}
