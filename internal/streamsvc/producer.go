package streamsvc

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"streamlake/internal/bus"
	"streamlake/internal/obs"
	"streamlake/internal/resil"
	"streamlake/internal/sim"
	"streamlake/internal/streamobj"
)

// Producer publishes messages to topics. The API mirrors the open-source
// de facto standard of Figure 7: construct a producer, Send to a topic.
// Producers are idempotent: every (producer, stream) send carries a
// sequence number the stream object deduplicates on.
type Producer struct {
	svc    *Service
	id     string
	tenant string // the tenant it is bound to, resolved per send; "" = system

	mu  sync.Mutex
	seq []int64  // last sequence number per stream, indexed by the stream object's ID
	rng *sim.RNG // seeded backoff jitter, lazily built from the service's resilience seed
}

// Producer returns a producer handle with the given client id. Sequence
// numbers — and therefore idempotent deduplication — are scoped to the
// id, so two producer instances sharing an id are treated as the same
// logical producer (a restart), not as independent senders. An empty id
// is assigned a fresh unique identity.
func (s *Service) Producer(id string) *Producer {
	if id == "" {
		s.mu.Lock()
		s.producerSeq++
		id = fmt.Sprintf("producer-%d", s.producerSeq)
		s.mu.Unlock()
	}
	return &Producer{svc: s, id: id}
}

// TenantProducer is Producer bound to a tenant identity: every send is
// admitted against the tenant's quotas before it moves and carries the
// tenant through bus scheduling, storage accounting, spans, and load
// shedding. The registry resolves the tenant per send: unmetered while
// it declares none, metered from the first declared tenant on.
func (s *Service) TenantProducer(id, ten string) *Producer {
	p := s.Producer(id)
	p.tenant = ten
	return p
}

// Send publishes one key-value message, returning the stored message and
// the modelled end-to-end produce latency (bus transfer to the stream
// worker plus the durable append).
func (p *Producer) Send(topic string, key, value []byte) (Message, time.Duration, error) {
	return p.SendSpanCtx(topic, key, value, nil, nil)
}

// SendCtx is Send under a resilience context: bus transfers, backoff
// waits, and append costs are charged against rc's virtual-time
// deadline. A nil rc is Send.
func (p *Producer) SendCtx(topic string, key, value []byte, rc *resil.Ctx) (Message, time.Duration, error) {
	return p.SendSpanCtx(topic, key, value, nil, rc)
}

// SendSpanCtx is SendCtx with tracing, for callers — the gateway — that
// both trace a request and bound it with a virtual-time deadline: the
// request's bus transfer, durable append, and everything below (PLog
// placement writes, slice flushes) are recorded as children of sp.
// Either argument may be nil. The record and its message live in this
// frame, so a steady-state send allocates nothing.
func (p *Producer) SendSpanCtx(topic string, key, value []byte, sp *obs.Span, rc *resil.Ctx) (Message, time.Duration, error) {
	rt := p.svc.routes.Load()
	tr, ok := rt.topics[topic]
	if !ok {
		return Message{}, 0, fmt.Errorf("%w: %s", ErrUnknownTopic, topic)
	}
	bytes := int64(len(key) + len(value))
	// Tenant admission: the send runs as the identity the registry
	// resolves ("" while no tenant is declared), and a metered send is
	// charged against its tenant's IOPS and bandwidth buckets exactly
	// once — the internal retries in sendOne never re-admit, so a retried
	// send can't be double-charged.
	ten, err := rt.tenants.Resolve(p.tenant)
	if err != nil {
		return Message{}, 0, err
	}
	if ten != "" {
		now := p.svc.clock.Now()
		if rc != nil {
			now = rc.Now()
		}
		if err := rt.tenants.Admit(ten, now, 1, bytes); err != nil {
			return Message{}, 0, err
		}
		if sp != nil {
			sp.SetAttr("tenant", ten)
		}
	}
	idx := routeKey(key, len(tr.streams))
	rec := [1]streamobj.Record{{Key: key, Value: value}}
	base, cost, err := p.sendOne(sp, rt, tr, topic, idx, ten, rec[:], bytes, rc)
	if err != nil {
		return Message{}, cost, err
	}
	rt.metrics.producedMsgs.Add(1)
	rt.metrics.producedBytes.Add(bytes)
	rt.metrics.produceLat.Observe(cost)
	return Message{Topic: topic, Stream: idx, Key: key, Value: value, Offset: base, Timestamp: p.svc.clock.Now()}, cost, nil
}

// backoffRNG returns the producer's seeded backoff jitter stream,
// derived from the service's resilience seed and the producer id so
// distinct producers decorrelate while the same seed replays the same
// schedule.
func (p *Producer) backoffRNG() *sim.RNG {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rng == nil {
		p.rng = sim.NewRNG(uint64(p.svc.routes.Load().seed) ^ hashString("producer-backoff/"+p.id))
	}
	return p.rng
}

// nextSeq draws the next sequence number for one stream. Object IDs are
// a store's small dense counter, so they index a slice.
func (p *Producer) nextSeq(obj *streamobj.Object) int64 {
	slot := int(obj.ID())
	p.mu.Lock()
	defer p.mu.Unlock()
	if slot >= len(p.seq) {
		p.seq = append(p.seq, make([]int64, slot+1-len(p.seq))...)
	}
	p.seq[slot]++
	return p.seq[slot]
}

// sendOne delivers one record of the given size to its stream's worker:
// forward transfer, durable append, acknowledgement, with retries under
// the service's resilience config. The sequence number is assigned once
// before the first attempt and reused by every retry, so a redelivered
// record — whether the forward transfer or the ack was lost — lands in
// the stream object's dedup window instead of appending twice. ten is
// the identity the send runs as ("" = unmetered).
func (p *Producer) sendOne(sp *obs.Span, rt *routes, tr topicRoutes, topic string, idx int, ten string, rec []streamobj.Record, bytes int64, rc *resil.Ctx) (int64, time.Duration, error) {
	obj, w := tr.streams[idx], tr.owners[idx]
	seq := p.nextSeq(obj)
	reg, m := rt.tenants, rt.metrics
	ep := w.ep
	br := p.svc.breakerFor(w)
	var cost time.Duration
	// appendedThisCall: a real (non-dedup) append happened under this
	// send's admission; refunded: the admission was already refunded. A
	// dedup re-ack refunds the admission exactly once, and only when no
	// attempt of THIS call did the work (otherwise the charge stands).
	var appendedThisCall, refunded bool
	if err := rc.Check(); err != nil {
		m.deadlines.Inc()
		return 0, 0, err
	}
	// Virtual now for breaker decisions: the request's effective time
	// when a deadline context is threaded, otherwise the clock plus the
	// cost modelled so far.
	vnow := func() time.Duration {
		if rc != nil {
			return rc.Now()
		}
		return p.svc.clock.Now() + cost
	}

	// attemptOnce runs one full try. final=true means the outcome must
	// be returned as-is (success, shed, deadline, application error);
	// final=false is a transient transport failure worth retrying.
	attemptOnce := func(attempt int) (base int64, err error, final bool) {
		// Admission control under overload: when the endpoint's breaker
		// has left Closed, lowest-priority tenant traffic is shed first —
		// a deliberate 429 before any bytes move, so shed load never
		// reaches storage and can never be acked-then-lost.
		if ten != "" && br.State() != resil.Closed && reg.ShouldShed(ten) {
			m.sheds.Inc()
			if sp != nil {
				e := sp.Child("tenant.shed")
				e.SetAttr("endpoint", ep)
				e.SetAttr("tenant", ten)
				e.End(0)
			}
			return 0, reg.Shed(ten, br.RetryAfter(vnow())), true
		}
		if aerr := br.Allow(vnow()); aerr != nil {
			m.sheds.Inc()
			if sp != nil {
				e := sp.Child("breaker.shed")
				e.SetAttr("endpoint", ep)
				e.End(0)
			}
			return 0, fmt.Errorf("streamsvc: produce to %s: %w", ep, aerr), true
		}
		// Forward transfer to the stream worker.
		busCost, serr := w.bus.SendLinkT("client", ep, bytes, bus.Normal, ten)
		cost += busCost
		if sp != nil {
			b := sp.Child("bus.send")
			b.SetAttr("worker", strconv.Itoa(w.id))
			if attempt > 0 {
				b.SetAttr("attempt", strconv.Itoa(attempt))
			}
			if serr != nil {
				b.SetAttr("outcome", "dropped")
			}
			b.End(busCost)
			sp.Advance(busCost)
		}
		if derr := rc.Charge(busCost); derr != nil {
			m.deadlines.Inc()
			return 0, derr, true
		}
		if serr != nil {
			return 0, fmt.Errorf("streamsvc: send to %s: %w", ep, serr), false
		}
		// Durable append at the worker.
		var osp *obs.Span
		if sp != nil {
			osp = sp.Child("streamobj.append")
			osp.SetAttr("stream", strconv.Itoa(idx))
			if attempt > 0 {
				osp.SetAttr("attempt", strconv.Itoa(attempt))
			}
		}
		base, c, appended, aerr := obj.AppendTenantCtx(rec, p.id, seq, ten, osp, rc)
		if osp != nil {
			osp.End(c)
			sp.Advance(c)
		}
		cost += c
		if appended {
			appendedThisCall = true
		} else if aerr == nil && !appendedThisCall && !refunded && ten != "" {
			// Dedup re-ack of a record some EARLIER producer incarnation
			// appended: this call's fresh admission did no work — hand
			// the tokens back so the retried send nets one charge.
			refunded = true
			reg.Refund(ten, 1, bytes)
		}
		if aerr != nil {
			if errors.Is(aerr, resil.ErrDeadlineExceeded) {
				// Ambiguous timeout: the append may have landed durably
				// (past the ack point the true base still comes back).
				// Retrying internally would double-spend the deadline;
				// the caller observes the ambiguity explicitly, as in
				// real systems where a timed-out produce may still have
				// committed.
				m.deadlines.Inc()
				br.Success(vnow())
				return base, aerr, true
			}
			// Application errors (quota, sealed stream) are not endpoint
			// failures; surface them without burning the breaker.
			return 0, aerr, true
		}
		// Cluster commit gate: the append is durable, but it must also
		// commit to the lake's replicated metadata log (on one node, a
		// local apply) before the client may be acknowledged. A quorum
		// failure is retryable — the re-sent record lands in the dedup
		// window (same seq, same base) and the commit re-proposes
		// idempotently, so failover neither loses the acked write nor
		// duplicates it. A minority partition can never pass this gate,
		// which is what "the minority side serves no new writes" means
		// operationally.
		if gate := p.svc.commitGate(); gate != nil {
			gc, gerr := gate.CommitProduce(topic, idx, base, 1)
			cost += gc
			if sp != nil {
				g := sp.Child("cluster.commit")
				g.SetAttr("stream", strconv.Itoa(idx))
				if gerr != nil {
					g.SetAttr("outcome", "no-quorum")
				}
				g.End(gc)
				sp.Advance(gc)
			}
			if derr := rc.Charge(gc); derr != nil {
				m.deadlines.Inc()
				br.Success(vnow())
				return base, derr, true
			}
			if gerr != nil {
				return 0, fmt.Errorf("streamsvc: commit %s/%d: %w", topic, idx, gerr), false
			}
		}
		// Acknowledgement on the reverse link: small and high-priority.
		// A lost ack leaves the append durable but the client unsure —
		// the retry resends and the dedup window answers with the
		// original base offset.
		ackCost, ackErr := w.bus.SendLinkT(ep, "client", ackBytes, bus.High, ten)
		cost += ackCost
		if sp != nil {
			sp.Advance(ackCost)
		}
		if derr := rc.Charge(ackCost); derr != nil {
			m.deadlines.Inc()
			br.Success(vnow())
			return base, derr, true
		}
		if ackErr != nil {
			m.ackDrops.Inc()
			return 0, fmt.Errorf("streamsvc: ack from %s lost: %w", ep, ackErr), false
		}
		br.Success(vnow())
		return base, nil, true
	}

	var lastErr error
	for attempt := 0; attempt < resil.MaxAttempts; attempt++ {
		base, err, final := attemptOnce(attempt)
		if final {
			return base, cost, err
		}
		lastErr = err
		if br.Failure(vnow()) {
			m.trips.Inc()
		}
		if attempt+1 >= resil.MaxAttempts {
			break
		}
		m.retries.Inc()
		backoff := resil.Backoff(attempt, p.backoffRNG())
		cost += backoff
		if sp != nil {
			b := sp.Child("retry.backoff")
			b.SetAttr("endpoint", ep)
			b.End(backoff)
			sp.Advance(backoff)
		}
		if derr := rc.Charge(backoff); derr != nil {
			m.deadlines.Inc()
			return 0, cost, derr
		}
	}
	return 0, cost, fmt.Errorf("streamsvc: %s: %w after %d attempts: %w", ep, ErrRetriesExhausted, resil.MaxAttempts, lastErr)
}
