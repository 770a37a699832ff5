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

// Producer publishes messages to topics. The API mirrors the open-source
// de facto standard of Figure 7: construct a producer, Send to a topic.
// Producers are idempotent: every (producer, stream) batch carries a
// sequence number the stream object deduplicates on.
type Producer struct {
	svc    *Service
	id     string
	tenant string // the tenant it is bound to, resolved per batch; "" = system

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
		s.txnSeq++
		id = fmt.Sprintf("producer-%d", s.txnSeq)
		s.mu.Unlock()
	}
	return &Producer{svc: s, id: id}
}

// TenantProducer is Producer bound to a tenant identity: every batch is
// admitted against the tenant's quotas before fan-out and carries the
// tenant through bus scheduling, storage accounting, spans, and load
// shedding. The registry resolves the tenant per batch: unmetered while
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

// SendBatch publishes records, each routed to a stream by its own key.
// Streams are served in ascending index order and the result is grouped
// the same way, each stream's records in the order given. A batch that
// spans streams is not atomic: when a later stream fails, the messages
// already acknowledged on earlier streams are returned WITH the error —
// they are durable and sequence-numbered, so a caller that resends must
// resend only the records that are missing from the result.
func (p *Producer) SendBatch(topic string, recs []streamobj.Record) ([]Message, time.Duration, error) {
	return p.sendBatch(nil, topic, recs, nil, nil)
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
	rec := [1]streamobj.Record{{Key: key, Value: value}}
	var msg [1]Message
	msgs, cost, err := p.sendBatch(sp, topic, rec[:], rc, msg[:0])
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
		p.rng = sim.NewRNG(uint64(p.svc.routes.Load().resil.Seed) ^ hashString("producer-backoff/"+p.id))
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

// groupByStream orders recs by target stream, ascending, each stream's
// records in the order given. One record, or records that already come
// that way, are returned as they are: borrowed, not copied.
func groupByStream(recs []streamobj.Record, streams int) []streamobj.Record {
	if len(recs) < 2 {
		return recs
	}
	less := func(rs []streamobj.Record) func(i, j int) bool {
		return func(i, j int) bool { return routeKey(rs[i].Key, streams) < routeKey(rs[j].Key, streams) }
	}
	if sort.SliceIsSorted(recs, less(recs)) {
		return recs
	}
	out := append([]streamobj.Record(nil), recs...)
	sort.SliceStable(out, less(out))
	return out
}

// sendBatch is the one produce path: one load of the routing snapshot
// tells it all it needs of the service. out is storage for the result.
func (p *Producer) sendBatch(sp *obs.Span, topic string, recs []streamobj.Record, rc *resil.Ctx, out []Message) ([]Message, time.Duration, error) {
	rt := p.svc.routes.Load()
	tr, ok := rt.topics[topic]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrUnknownTopic, topic)
	}
	var total int64
	for _, r := range recs {
		total += int64(len(r.Key) + len(r.Value))
	}
	// Tenant admission: the batch runs as the identity the registry
	// resolves ("" while no tenant is declared), and a metered batch is
	// charged against its tenant's IOPS and bandwidth buckets exactly
	// once, before fan-out — internal per-stream retries below never
	// re-admit, so a retried batch can't be double-charged.
	ten, err := rt.tenants.Resolve(p.tenant)
	if err != nil {
		return nil, 0, err
	}
	if ten != "" {
		now := p.svc.clock.Now()
		if rc != nil {
			now = rc.Now()
		}
		if err := rt.tenants.Admit(ten, now, len(recs), total); err != nil {
			return nil, 0, err
		}
		if sp != nil {
			sp.SetAttr("tenant", ten)
		}
	}
	// One run of recs per stream, in ascending stream order: retry,
	// backoff and breaker decisions must not depend on anything but the
	// batch, or chaos replay stops being bit-identical.
	recs = groupByStream(recs, len(tr.streams))
	var cost time.Duration
	for len(recs) > 0 {
		idx := routeKey(recs[0].Key, len(tr.streams))
		n := 1
		for n < len(recs) && routeKey(recs[n].Key, len(tr.streams)) == idx {
			n++
		}
		base, c, serr := p.sendOne(sp, rt, tr, topic, idx, ten, recs[:n], rc)
		cost += c
		if err = serr; err != nil {
			break
		}
		tr.owners[idx].appended.Add(int64(n))
		for i, r := range recs[:n] {
			out = append(out, Message{
				Topic: topic, Stream: idx, Key: r.Key, Value: r.Value,
				Offset: base + int64(i), Timestamp: p.svc.clock.Now(),
			})
		}
		recs = recs[n:]
	}
	// What was acknowledged is counted and returned even when a later
	// stream failed; recs is then what was not.
	for _, r := range recs {
		total -= int64(len(r.Key) + len(r.Value))
	}
	rt.metrics.producedMsgs.Add(int64(len(out)))
	rt.metrics.producedBytes.Add(total)
	if err != nil {
		return out, cost, err
	}
	rt.metrics.produceLat.Observe(cost)
	return out, cost, nil
}

// sendOne delivers one stream's batch to its worker: forward transfer,
// durable append, acknowledgement, with retries under the service's
// resilience config. The sequence number is assigned once before the
// first attempt and reused by every retry, so a redelivered batch —
// whether the forward transfer or the ack was lost — lands in the
// stream object's dedup window instead of appending twice. ten is the
// identity the batch runs as ("" = unmetered).
func (p *Producer) sendOne(sp *obs.Span, rt *routes, tr topicRoutes, topic string, idx int, ten string, batch []streamobj.Record, rc *resil.Ctx) (int64, time.Duration, error) {
	var bytes int64
	for _, r := range batch {
		bytes += int64(len(r.Key) + len(r.Value))
	}
	obj, w := tr.streams[idx], tr.owners[idx]
	seq := p.nextSeq(obj)
	cfg, reg, m := rt.resil, rt.tenants, rt.metrics
	ep := w.ep
	br := p.svc.breakerFor(w)
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
		base, c, appended, aerr := obj.AppendTenantCtx(batch, p.id, seq, ten, osp, rc)
		if osp != nil {
			osp.End(c)
			sp.Advance(c)
		}
		cost += c
		if appended {
			appendedThisCall = true
		} else if aerr == nil && !appendedThisCall && !refunded && ten != "" {
			// Dedup re-ack of a batch some EARLIER producer incarnation
			// appended: this call's fresh admission did no work — hand
			// the tokens back so the retried batch nets one charge.
			refunded = true
			reg.Refund(ten, len(batch), bytes)
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
		ackCost, ackErr := w.bus.SendLinkT(ep, "client", cfg.AckBytes, bus.High, ten)
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
	tr, ok := t.p.svc.routes.Load().topics[topic]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTopic, topic)
	}
	idx := routeKey(key, len(tr.streams))
	k := streamKey(topic, idx)
	part, ok := t.parts[k]
	if !ok {
		part = &txnPart{topic: topic, idx: idx, obj: tr.streams[idx]}
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
		_, c, err := part.obj.Append(part.recs, t.p.id, t.p.nextSeq(part.obj))
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
