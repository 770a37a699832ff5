package streamsvc

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"streamlake/internal/bus"
	"streamlake/internal/obs"
	"streamlake/internal/resil"
	"streamlake/internal/sim"
	"streamlake/internal/streamobj"
)

// streamID keys a producer's per-stream sequence numbers.
type streamID struct {
	topic string
	idx   int
}

// Producer publishes messages to topics. The API mirrors the open-source
// de facto standard of Figure 7: construct a producer, Send to a topic.
// Producers are idempotent: every (producer, stream) batch carries a
// sequence number the stream object deduplicates on.
type Producer struct {
	svc    *Service
	id     string
	tenant string // tenant identity carried on every batch; "" = system

	mu  sync.Mutex
	seq map[streamID]int64
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
		s.txnSeq++
		id = fmt.Sprintf("producer-%d", s.txnSeq)
		s.mu.Unlock()
	}
	return &Producer{svc: s, id: id, seq: make(map[streamID]int64)}
}

// TenantProducer is Producer bound to a tenant identity: every batch is
// admitted against the tenant's quotas before fan-out and carries the
// tenant through bus scheduling, storage accounting, spans, and load
// shedding. An empty tenant is the system identity (plain Producer).
func (s *Service) TenantProducer(id, ten string) *Producer {
	p := s.Producer(id)
	p.tenant = ten
	return p
}

// Tenant returns the producer's tenant identity ("" = system).
func (p *Producer) Tenant() string { return p.tenant }

// Send publishes one key-value message, returning the stored message and
// the modelled end-to-end produce latency (bus transfer to the stream
// worker plus the durable append).
func (p *Producer) Send(topic string, key, value []byte) (Message, time.Duration, error) {
	msgs, cost, err := p.SendBatch(topic, []streamobj.Record{{Key: key, Value: value}})
	if err != nil {
		return Message{}, cost, err
	}
	return msgs[0], cost, nil
}

// SendBatch publishes records that share a routing key stream (each
// record routes independently by its key).
func (p *Producer) SendBatch(topic string, recs []streamobj.Record) ([]Message, time.Duration, error) {
	return p.sendBatch(nil, topic, recs, nil)
}

// SendCtx is Send under a resilience context: bus transfers, backoff
// waits, and append costs are charged against rc's virtual-time
// deadline. A nil rc is Send.
func (p *Producer) SendCtx(topic string, key, value []byte, rc *resil.Ctx) (Message, time.Duration, error) {
	msgs, cost, err := p.sendBatch(nil, topic, []streamobj.Record{{Key: key, Value: value}}, rc)
	if err != nil {
		return Message{}, cost, err
	}
	return msgs[0], cost, nil
}

// SendSpanCtx is SendCtx with tracing, for callers — the gateway — that
// both trace a request and bound it with a virtual-time deadline: the
// request's bus transfer, durable append, and everything below (PLog
// placement writes, slice flushes) are recorded as children of sp.
// Either argument may be nil.
func (p *Producer) SendSpanCtx(topic string, key, value []byte, sp *obs.Span, rc *resil.Ctx) (Message, time.Duration, error) {
	msgs, cost, err := p.sendBatch(sp, topic, []streamobj.Record{{Key: key, Value: value}}, rc)
	if err != nil {
		return Message{}, cost, err
	}
	return msgs[0], cost, nil
}

// backoffRNG returns the producer's seeded backoff jitter stream,
// derived from the service's resilience seed and the producer id so
// distinct producers decorrelate while the same seed replays the same
// schedule.
func (p *Producer) backoffRNG() *sim.RNG {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rng == nil {
		p.rng = sim.NewRNG(uint64(p.svc.resilience().Seed) ^ hashString("producer-backoff/"+p.id))
	}
	return p.rng
}

func (p *Producer) sendBatch(sp *obs.Span, topic string, recs []streamobj.Record, rc *resil.Ctx) ([]Message, time.Duration, error) {
	p.svc.mu.Lock()
	ts, ok := p.svc.topics[topic]
	m := p.svc.metrics
	p.svc.mu.Unlock()
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrUnknownTopic, topic)
	}
	var total int64
	for _, r := range recs {
		total += int64(len(r.Key) + len(r.Value))
	}
	// Tenant admission: the whole client batch is charged against the
	// tenant's IOPS and bandwidth buckets exactly once, before fan-out —
	// internal per-stream retries below never re-admit, so a retried
	// batch can't be double-charged.
	if reg := p.svc.Tenants(); reg != nil && p.tenant != "" {
		now := p.svc.clock.Now()
		if rc != nil {
			now = rc.Now()
		}
		if err := reg.Admit(p.tenant, now, len(recs), total); err != nil {
			return nil, 0, err
		}
		if sp != nil {
			sp.SetAttr("tenant", p.tenant)
		}
	}
	// Group records by target stream.
	byStream := make(map[int][]streamobj.Record)
	for _, r := range recs {
		idx := routeKey(r.Key, len(ts.streams))
		byStream[idx] = append(byStream[idx], r)
	}
	// Deterministic stream order: map iteration order would make retry,
	// backoff, and breaker decisions depend on runtime map layout,
	// breaking bit-identical chaos replay.
	idxs := make([]int, 0, len(byStream))
	for idx := range byStream {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	var out []Message
	var cost time.Duration
	for _, idx := range idxs {
		batch := byStream[idx]
		obj := ts.streams[idx]
		w := p.svc.ownerOf(topic, idx)
		base, c, err := p.sendOne(sp, topic, idx, batch, obj, w, rc)
		cost += c
		if err != nil {
			return nil, cost, err
		}
		w.mu.Lock()
		w.appended += int64(len(batch))
		w.mu.Unlock()
		for i, r := range batch {
			out = append(out, Message{
				Topic: topic, Stream: idx, Key: r.Key, Value: r.Value,
				Offset: base + int64(i), Timestamp: p.svc.clock.Now(),
			})
		}
	}
	m.producedMsgs.Add(int64(len(out)))
	m.producedBytes.Add(total)
	m.produceLat.Observe(cost)
	return out, cost, nil
}

// sendOne delivers one stream's batch to its worker: forward transfer,
// durable append, acknowledgement, with retries under the service's
// resilience config. The sequence number is assigned once before the
// first attempt and reused by every retry, so a redelivered batch —
// whether the forward transfer or the ack was lost — lands in the
// stream object's dedup window instead of appending twice.
func (p *Producer) sendOne(sp *obs.Span, topic string, idx int, batch []streamobj.Record, obj *streamobj.Object, w *Worker, rc *resil.Ctx) (int64, time.Duration, error) {
	var bytes int64
	for _, r := range batch {
		bytes += int64(len(r.Key) + len(r.Value))
	}
	p.mu.Lock()
	p.seq[streamID{topic, idx}]++
	seq := p.seq[streamID{topic, idx}]
	p.mu.Unlock()

	cfg := p.svc.resilience()
	ep := w.ep
	br := p.svc.breakerFor(ep)
	reg := p.svc.Tenants()
	m := p.svc.metrics
	var cost time.Duration
	// appendedThisCall: a real (non-dedup) append happened under this
	// batch's admission; refunded: the admission was already refunded. A
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
	attempts := cfg.Retry.MaxAttempts
	if attempts <= 0 {
		attempts = resil.DefaultRetryPolicy().MaxAttempts
	}

	// attemptOnce runs one full try. final=true means the outcome must
	// be returned as-is (success, shed, deadline, application error);
	// final=false is a transient transport failure worth retrying.
	attemptOnce := func(attempt int) (base int64, err error, final bool) {
		// Admission control under overload: when the endpoint's breaker
		// has left Closed, lowest-priority tenant traffic is shed first —
		// a deliberate 429 before any bytes move, so shed load never
		// reaches storage and can never be acked-then-lost.
		if reg != nil && p.tenant != "" && br.State() != resil.Closed && reg.ShouldShed(p.tenant) {
			m.sheds.Inc()
			if sp != nil {
				e := sp.Child("tenant.shed")
				e.SetAttr("endpoint", ep)
				e.SetAttr("tenant", p.tenant)
				e.End(0)
			}
			return 0, reg.Shed(p.tenant, br.RetryAfter(vnow())), true
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
		busCost, serr := w.bus.SendLinkT("client", ep, bytes, bus.Normal, p.tenant)
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
		base, c, appended, aerr := obj.AppendTenantCtx(batch, p.id, seq, p.tenant, osp, rc)
		if osp != nil {
			osp.End(c)
			sp.Advance(c)
		}
		cost += c
		if appended {
			appendedThisCall = true
		} else if aerr == nil && !appendedThisCall && !refunded && reg != nil && p.tenant != "" {
			// Dedup re-ack of a batch some EARLIER producer incarnation
			// appended: this call's fresh admission did no work — hand
			// the tokens back so the retried batch nets one charge.
			refunded = true
			reg.Refund(p.tenant, len(batch), bytes)
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
		// Cluster commit gate: the append is durable, but in clustered
		// mode it must also commit to the replicated metadata log before
		// the client may be acknowledged. A quorum failure is retryable —
		// the re-sent batch lands in the dedup window (same seq, same
		// base) and the commit re-proposes idempotently, so failover
		// neither loses the acked write nor duplicates it. A minority
		// partition can never pass this gate, which is what "the minority
		// side serves no new writes" means operationally.
		if gate := p.svc.commitGate(); gate != nil {
			gc, gerr := gate.CommitProduce(topic, idx, base, len(batch))
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
		ackCost, ackErr := w.bus.SendLinkT(ep, "client", cfg.AckBytes, bus.High, p.tenant)
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
	for attempt := 0; attempt < attempts; attempt++ {
		base, err, final := attemptOnce(attempt)
		if final {
			return base, cost, err
		}
		lastErr = err
		if br.Failure(vnow()) {
			m.trips.Inc()
		}
		if attempt+1 >= attempts {
			break
		}
		m.retries.Inc()
		backoff := cfg.Retry.Backoff(attempt, p.backoffRNG())
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
	return 0, cost, fmt.Errorf("streamsvc: %s: %w after %d attempts: %w", ep, ErrRetriesExhausted, attempts, lastErr)
}

// TxnState tracks a transaction through the two-phase commit protocol.
type TxnState int

const (
	// TxnOpen accepts sends.
	TxnOpen TxnState = iota
	// TxnCommitted is terminal success.
	TxnCommitted
	// TxnAborted is terminal failure.
	TxnAborted
)

// Txn is a producer transaction: sends are buffered and made durable
// atomically at Commit through the transaction manager's two-phase
// commit, giving exactly-once semantics — all of the transaction's
// messages become visible together or not at all.
type Txn struct {
	p     *Producer
	id    int64
	state TxnState
	// buffered records per (topic, stream).
	parts map[string]*txnPart
}

type txnPart struct {
	topic string
	idx   int
	obj   *streamobj.Object
	recs  []streamobj.Record
}

// BeginTxn opens a transaction, logging it with the transaction manager
// (the dispatcher's KV store).
func (p *Producer) BeginTxn() *Txn {
	p.svc.mu.Lock()
	p.svc.txnSeq++
	id := p.svc.txnSeq
	p.svc.mu.Unlock()
	p.svc.meta.Put([]byte(fmt.Sprintf("txn/%d", id)), []byte("begin"))
	return &Txn{p: p, id: id, parts: make(map[string]*txnPart)}
}

// Send buffers one message in the transaction.
func (t *Txn) Send(topic string, key, value []byte) error {
	if t.state != TxnOpen {
		return ErrTxnAborted
	}
	t.p.svc.mu.Lock()
	ts, ok := t.p.svc.topics[topic]
	t.p.svc.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTopic, topic)
	}
	idx := routeKey(key, len(ts.streams))
	k := streamKey(topic, idx)
	part, ok := t.parts[k]
	if !ok {
		part = &txnPart{topic: topic, idx: idx, obj: ts.streams[idx]}
		t.parts[k] = part
	}
	part.recs = append(part.recs, streamobj.Record{Key: key, Value: value})
	return nil
}

// Commit runs two-phase commit: every participant stream prepares
// (validating it can accept the batch), then all batches are appended
// under the service's commit latch so consumers observe the transaction
// atomically. Any prepare failure aborts the whole transaction.
func (t *Txn) Commit() (time.Duration, error) {
	if t.state != TxnOpen {
		return 0, ErrTxnAborted
	}
	svc := t.p.svc
	// Participants in sorted key order: deterministic prepare/commit
	// sequencing regardless of map layout, for bit-identical replay.
	keys := make([]string, 0, len(t.parts))
	for k := range t.parts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// Phase 1: prepare.
	for _, k := range keys {
		part := t.parts[k]
		if err := part.obj.CanAppend(len(part.recs)); err != nil {
			t.abortInternal()
			return 0, fmt.Errorf("%w: prepare failed on %s/%d: %v", ErrTxnAborted, part.topic, part.idx, err)
		}
	}
	svc.meta.Put([]byte(fmt.Sprintf("txn/%d", t.id)), []byte("prepared"))
	// Phase 2: commit. The commit latch makes the appends atomic with
	// respect to polling consumers.
	svc.commitMu.Lock()
	var cost time.Duration
	for _, k := range keys {
		part := t.parts[k]
		t.p.mu.Lock()
		t.p.seq[streamID{part.topic, part.idx}]++
		seq := t.p.seq[streamID{part.topic, part.idx}]
		t.p.mu.Unlock()
		_, c, err := part.obj.Append(part.recs, t.p.id, seq)
		if err != nil {
			// Prepare validated capacity; failure here is a programming
			// error surfaced loudly rather than silently partial.
			svc.commitMu.Unlock()
			t.state = TxnAborted
			svc.meta.Put([]byte(fmt.Sprintf("txn/%d", t.id)), []byte("failed"))
			return cost, fmt.Errorf("streamsvc: commit phase-2 append: %w", err)
		}
		cost += c
	}
	svc.commitMu.Unlock()
	svc.meta.Put([]byte(fmt.Sprintf("txn/%d", t.id)), []byte("committed"))
	t.state = TxnCommitted
	return cost, nil
}

// Abort discards the transaction's buffered messages.
func (t *Txn) Abort() {
	if t.state == TxnOpen {
		t.abortInternal()
	}
}

func (t *Txn) abortInternal() {
	t.state = TxnAborted
	t.p.svc.meta.Put([]byte(fmt.Sprintf("txn/%d", t.id)), []byte("aborted"))
}

// State returns the transaction's current state.
func (t *Txn) State() TxnState { return t.state }
