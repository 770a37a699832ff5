package streamsvc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"streamlake/internal/bus"
	"streamlake/internal/kv"
	"streamlake/internal/obs"
	"streamlake/internal/resil"
	"streamlake/internal/sim"
	"streamlake/internal/streamobj"
	"streamlake/internal/tenant"
)

// Errors returned by the streaming service.
var (
	ErrUnknownTopic  = errors.New("streamsvc: unknown topic")
	ErrTopicExists   = errors.New("streamsvc: topic already exists")
	ErrNotSubscribed = errors.New("streamsvc: consumer not subscribed to topic")
)

// topicState is the dispatcher's view of one topic; nothing in it changes
// after CreateTopic.
type topicState struct {
	cfg     TopicConfig
	streams []*streamobj.Object
}

// routes is what a send or a poll needs to know about the service. A
// published value is never written again: every mutator that can change
// an answer builds a new one under s.mu (publishLocked), so a request
// loads one pointer, takes no lock, and sees one fleet — the old or the
// new, never a mix.
type routes struct {
	topics  map[string]topicRoutes
	tenants *tenant.Registry
	seed    int64 // SetResilience's backoff seed
	metrics svcMetrics
	reg     *obs.Registry
}

// topicRoutes is one topic in the snapshot: owners[i] serves streams[i].
type topicRoutes struct {
	*topicState
	owners []*Worker
}

// Worker is one stream worker: it owns the stream object clients for the
// streams routed to it and talks to storage over the data bus via RDMA.
type Worker struct {
	id  int
	ep  string // workerEndpoint(id), named once
	bus *bus.Bus

	breaker atomic.Pointer[resil.Breaker] // breakerFor's answer; SetResilience clears it

	down bool // cluster verdict: the worker's node is dead or draining; under Service.mu
}

// Service is the streaming service: dispatcher plus worker fleet.
type Service struct {
	clock *sim.Clock
	store *streamobj.Store
	meta  *kv.DB // the dispatcher's fault-tolerant key-value store

	mu          sync.Mutex
	topics      map[string]*topicState
	workers     []*Worker
	topology    int64                  // topology version, bumped on every change
	producerSeq int64                  // numbers the producers created without an id
	routes      atomic.Pointer[routes] // stored under mu, loaded without

	// reg is retained so workers created after wiring (SetWorkerCount)
	// register their buses too; metrics holds the service's instruments.
	reg     *obs.Registry
	metrics svcMetrics
	// retired holds the counts of every worker bus a rescale dropped, so
	// the service's bus totals never go down.
	retired bus.Tally

	// Resilience state (see resil.go): the network fault hook worker
	// buses consult, the backoff seed, and the per-endpoint circuit
	// breakers (keyed by endpoint name so they survive rescales).
	netHook     bus.NetHook
	backoffSeed int64
	breakers    map[string]*resil.Breaker

	// gate, when set, must commit every durable append to the cluster's
	// replicated metadata log before the producer acks (see
	// Producer.sendOne). Swapped atomically so the produce hot path
	// reads it without s.mu.
	gate atomic.Pointer[CommitGate]

	// tenants is the multi-tenancy plane, never nil (New starts with an
	// empty registry); qosWire attaches the per-worker bus scheduler so
	// rescaled fleets (SetWorkerCount) inherit it.
	tenants *tenant.Registry
	qosWire func(*Worker)
}

// SetTenants attaches the tenant registry and gives every worker bus a
// weighted-fair scheduler over its link bandwidth. Workers created by
// later rescales inherit the wiring. Call at wiring time; the lake
// shares one registry between the service and its store.
func (s *Service) SetTenants(reg *tenant.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tenants = reg
	s.wireQoSLocked(reg)
	s.publishLocked()
}

// SetContention attaches the unisolated shared-queue contention model
// to every worker bus — the control baseline for the noisy-neighbor
// experiment: all tenants share one backlog per priority class, so a
// heavy sender's queue delays everyone behind it.
func (s *Service) SetContention() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wireQoSLocked(nil)
}

func (s *Service) wireQoSLocked(reg *tenant.Registry) {
	s.qosWire = func(w *Worker) {
		w.bus.SetQoS(tenant.NewSched(s.clock, reg, w.bus.Link().Spec().WriteBandwidth))
	}
	for _, w := range s.workers {
		s.qosWire(w)
	}
}

// CommitGate is the cluster's produce-commit hook: called after a batch
// is durably appended and before the client is acknowledged. An error
// means the metadata quorum is unavailable — the producer must not ack
// and retries instead (the stream object's dedup window absorbs the
// re-append).
type CommitGate interface {
	CommitProduce(topic string, stream int, base int64, count int) (time.Duration, error)
}

// SetCommitGate installs (or clears, with nil) the produce commit gate.
func (s *Service) SetCommitGate(g CommitGate) { s.gate.Store(&g) }

func (s *Service) commitGate() CommitGate {
	if gp := s.gate.Load(); gp != nil {
		return *gp
	}
	return nil
}

// svcMetrics is the streaming service's obs instrument set; wired once
// by SetObs, nil-safe no-ops until then.
type svcMetrics struct {
	producedMsgs  *obs.Counter
	producedBytes *obs.Counter
	consumedMsgs  *obs.Counter
	produceLat    *obs.Histogram
	pollLat       *obs.Histogram
	retries       *obs.Counter
	sheds         *obs.Counter
	trips         *obs.Counter
	deadlines     *obs.Counter
	ackDrops      *obs.Counter
}

// SetObs registers the service's telemetry — produce/consume throughput
// counters, latency histograms, topology gauges, and the worker buses'
// counts and send latencies summed over every bus the service has run
// (busTotals). Call at wiring time.
func (s *Service) SetObs(reg *obs.Registry) {
	s.mu.Lock()
	s.reg = reg
	s.metrics = svcMetrics{
		producedMsgs:  reg.Counter("streamsvc_produced_messages_total"),
		producedBytes: reg.Counter("streamsvc_produced_bytes_total"),
		consumedMsgs:  reg.Counter("streamsvc_consumed_messages_total"),
		produceLat:    reg.Histogram("streamsvc_produce_seconds"),
		pollLat:       reg.Histogram("streamsvc_poll_seconds"),
		retries:       reg.Counter("streamsvc_retries_total"),
		sheds:         reg.Counter("streamsvc_breaker_sheds_total"),
		trips:         reg.Counter("streamsvc_breaker_trips_total"),
		deadlines:     reg.Counter("streamsvc_deadline_exceeded_total"),
		ackDrops:      reg.Counter("streamsvc_ack_drops_total"),
	}
	s.publishLocked()
	s.mu.Unlock()
	if reg == nil {
		return
	}
	reg.GaugeFunc("streamsvc_topics", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.topics))
	})
	reg.GaugeFunc("streamsvc_workers", func() float64 { return float64(s.WorkerCount()) })
	bus.RegisterTotals(reg, workerBus.Path, s.busTotals)
}

// busTotals sums the counts of every worker bus the service has run:
// the fleet's own, read without flushing a pending batch, and the
// retired buses'.
func (s *Service) busTotals() bus.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.retired.Stats()
	for _, w := range s.workers {
		t.Add(w.bus.Peek())
	}
	return t
}

// New builds a streaming service with workerCount stream workers over
// the given stream object store.
func New(clock *sim.Clock, store *streamobj.Store, workerCount int) *Service {
	if workerCount <= 0 {
		workerCount = 1
	}
	s := &Service{
		clock:  clock,
		store:  store,
		meta:   kv.Open(sim.NewDeviceOf("dispatcher-kv", sim.SCM)),
		topics: make(map[string]*topicState),
	}
	for i := 0; i < workerCount; i++ {
		s.workers = append(s.workers, newWorker(i))
	}
	reg, _ := tenant.NewRegistry(nil) // no configs, no error
	s.SetTenants(reg)
	s.SetResilience(0)
	return s
}

// workerBus configures every stream worker's bus.
var workerBus = bus.Config{Path: bus.RDMA, Aggregation: true}

func newWorker(id int) *Worker {
	return &Worker{id: id, ep: workerEndpoint(id), bus: bus.New(workerBus)}
}

// Clock exposes the virtual clock the service charges costs against.
func (s *Service) Clock() *sim.Clock { return s.clock }

// Store exposes the underlying stream object store.
func (s *Service) Store() *streamobj.Store { return s.store }

// CreateTopic declares a topic: StreamNum stream objects are created and
// publishLocked routes them to the workers.
func (s *Service) CreateTopic(cfg TopicConfig) error {
	cfg.applyDefaults()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.topics[cfg.Name]; ok {
		return fmt.Errorf("%w: %s", ErrTopicExists, cfg.Name)
	}
	ts := &topicState{cfg: cfg}
	for i := 0; i < cfg.StreamNum; i++ {
		o, err := s.store.Create(streamobj.CreateOptions{
			Topic:       cfg.Name,
			Redundancy:  cfg.Redundancy,
			QuotaPerSec: cfg.QuotaPerSec,
			SCMCache:    cfg.SCMCache,
		})
		if err != nil {
			return err
		}
		ts.streams = append(ts.streams, o)
	}
	s.topics[cfg.Name] = ts
	s.topologyChangedLocked()
	return nil
}

func streamKey(topic string, idx int) string { return topic + "/" + strconv.Itoa(idx) }

// topologyChangedLocked closes every topology mutation: it bumps the
// version and publishes, returning what publishLocked moved.
func (s *Service) topologyChangedLocked() (moved int, cost time.Duration) {
	s.topology++
	s.meta.Put([]byte("topology/version"), binary.AppendVarint(nil, s.topology))
	s.meta.Put([]byte("topology/workers"), binary.AppendVarint(nil, int64(len(s.workers))))
	return s.publishLocked()
}

// publishLocked rebuilds and publishes the routing snapshot. Every
// stream's owner comes from one rule: stream i's home is workers[i % n],
// which serves it while up; otherwise the up worker rendezvousPick ranks
// first serves it; with the whole fleet down, worker 0, whose dead links
// fail the send — the correct outcome. Each stream whose owner differs
// from the previous snapshot's is recorded in the dispatcher KV
// (assign/<topic>/<i>): moved counts them and cost sums the
// metadata-only writes. A deleted topic's records are deleted.
func (s *Service) publishLocked() (moved int, cost time.Duration) {
	prev := s.routes.Load()
	if prev == nil { // New's first publish
		prev = &routes{}
	}
	rt := &routes{topics: make(map[string]topicRoutes, len(s.topics)), tenants: s.tenants, seed: s.backoffSeed, metrics: s.metrics, reg: s.reg}
	up := make([]*Worker, 0, len(s.workers))
	for _, w := range s.workers {
		if !w.down {
			up = append(up, w)
		}
	}
	for name, ts := range s.topics {
		tr := topicRoutes{ts, make([]*Worker, len(ts.streams))}
		was := prev.topics[name].owners
		for i := range tr.owners {
			w := s.workers[i%len(s.workers)]
			if w.down {
				w = s.workers[0]
				if len(up) > 0 {
					w = rendezvousPick(streamKey(name, i), up)
				}
			}
			tr.owners[i] = w
			if i < len(was) && was[i].id == w.id {
				continue
			}
			moved++
			cost += s.meta.Put([]byte("assign/"+streamKey(name, i)), []byte(strconv.Itoa(w.id)))
		}
		rt.topics[name] = tr
	}
	for name, tr := range prev.topics {
		if s.topics[name] != nil {
			continue
		}
		for i := range tr.owners {
			s.meta.Delete([]byte("assign/" + streamKey(name, i)))
		}
	}
	s.routes.Store(rt)
	return moved, cost
}

// DeleteTopic removes a topic and destroys its stream objects.
func (s *Service) DeleteTopic(name string) error {
	s.mu.Lock()
	ts, ok := s.topics[name]
	if ok {
		delete(s.topics, name)
	}
	s.topologyChangedLocked()
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTopic, name)
	}
	for _, o := range ts.streams {
		if err := s.store.Destroy(o.ID()); err != nil {
			return err
		}
	}
	return nil
}

// Topic returns a topic's configuration.
func (s *Service) Topic(name string) (TopicConfig, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts, ok := s.topics[name]
	if !ok {
		return TopicConfig{}, fmt.Errorf("%w: %s", ErrUnknownTopic, name)
	}
	return ts.cfg, nil
}

// Topics lists declared topic names.
func (s *Service) Topics() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.topics))
	for name := range s.topics {
		out = append(out, name)
	}
	return out
}

// Streams returns a topic's stream objects (read-only use: conversion,
// archiving, metrics).
func (s *Service) Streams(topic string) ([]*streamobj.Object, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts, ok := s.topics[topic]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownTopic, topic)
	}
	return append([]*streamobj.Object(nil), ts.streams...), nil
}

// WorkerCount reports the current worker fleet size.
func (s *Service) WorkerCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.workers)
}

// SetWorkerCount rescales the worker fleet. Because storage is
// disaggregated, only the stream→worker mapping changes: the method
// returns how many stream assignments moved and the modelled remap time
// (a metadata update per moved stream), with zero data migration —
// the elasticity of Figure 14(c). Each worker id the new fleet keeps
// keeps its down verdict.
func (s *Service) SetWorkerCount(n int) (moved int, cost time.Duration) {
	if n <= 0 {
		n = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	workers := make([]*Worker, n)
	for i := range workers {
		workers[i] = newWorker(i)
		if i < len(s.workers) {
			workers[i].down = s.workers[i].down
		}
		if s.netHook != nil {
			workers[i].bus.SetNet(s.netHook, workers[i].ep)
		}
		s.qosWire(workers[i])
	}
	for _, w := range s.workers {
		w.bus.Retire(&s.retired)
	}
	s.workers = workers
	return s.topologyChangedLocked()
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// SetWorkerDown flips one worker's cluster-liveness verdict — the
// metadata-only failover the dispatcher runs when the cluster commits a
// node dead (down=true) or back alive (down=false). The worker object
// survives, so a revived node's worker resumes with its breaker history
// and bus wiring intact. publishLocked's rule keeps the churn minimal:
// marking a worker down moves only the streams it served, spread over the
// up workers by rendezvous hashing, and marking it back up returns its
// home streams. With another worker still down, a revived worker also
// takes that worker's streams that rendezvous ranks it first for. It
// returns how many stream assignments moved and the modelled remap cost.
func (s *Service) SetWorkerDown(id int, down bool) (moved int, cost time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 0 || id >= len(s.workers) || s.workers[id].down == down {
		return 0, 0
	}
	s.workers[id].down = down
	return s.topologyChangedLocked()
}

// rendezvousPick chooses a stream's owner among the up workers by
// highest-random-weight (rendezvous) hashing: each (stream, worker) pair
// scores independently, so removing a worker from the up set moves only
// that worker's streams — never a reshuffle among the survivors.
func rendezvousPick(key string, up []*Worker) *Worker {
	best := up[0]
	bestScore := hashString(key + "\x00" + strconv.Itoa(best.id))
	for _, w := range up[1:] {
		if score := hashString(key + "\x00" + strconv.Itoa(w.id)); score > bestScore {
			best, bestScore = w, score
		}
	}
	return best
}

// routeKey picks the stream index for a key (hash routing, matching
// the stream object's topic/key assignment of Figure 4).
func routeKey(key []byte, n int) int {
	if n == 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write(key)
	return int(h.Sum32() % uint32(n))
}
