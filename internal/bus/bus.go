// Package bus models the data exchange and interworking bus of the store
// layer (Section III): the high-speed fabric interconnecting all nodes.
// It implements the three bus features the paper names — an RDMA path
// that bypasses the kernel stack, intelligent aggregation of small I/O
// requests, and I/O priority scheduling — as deterministic cost models
// over the simulated link devices, so that "RDMA vs TCP" and
// "aggregation on vs off" produce measurably different virtual latencies.
package bus

import (
	"sync"
	"sync/atomic"
	"time"

	"streamlake/internal/obs"
	"streamlake/internal/sim"
)

// Path selects the transport the bus uses.
type Path int

const (
	// RDMA bypasses the CPU and kernel stack (3 µs-class per-op cost).
	RDMA Path = iota
	// TCP is the conventional kernel path (50 µs-class per-op cost).
	TCP
)

// Priority orders competing I/O on the bus.
type Priority int

const (
	// High priority I/O (foreground reads, commit records) is never
	// queued behind other traffic.
	High Priority = iota
	// Normal priority is the default for data transfers.
	Normal
	// Low priority (background compaction, tiering migration) yields to
	// everything else.
	Low
)

// Config tunes a Bus.
type Config struct {
	Path Path
	// Aggregation coalesces small sends so the per-operation fixed cost
	// is paid once per batch instead of once per message. The paper
	// notes it can be disabled for latency-sensitive scenarios.
	Aggregation bool
	// AggregationCount is the number of small sends amortizing one fixed
	// cost (default 16).
	AggregationCount int
	// SmallIOBytes is the threshold below which a send is eligible for
	// aggregation (default 64 KiB).
	SmallIOBytes int64
	// DropTimeout is the virtual time a sender waits before concluding a
	// message was lost (default 500 µs). Charged, on top of any injected
	// delay, for every send the network fault plane fails.
	DropTimeout time.Duration
}

// NetHook decides the fate of a message on the directed link from→to:
// extra delivery delay, or an error when the message is dropped or the
// link partitioned. faults.NetPlane implements it.
type NetHook interface {
	Deliver(from, to string, n int64) (time.Duration, error)
}

// QoS imposes tenant-aware scheduling delay on delivered sends.
// tenant.Sched implements it: weighted-fair queuing within each priority
// class. The class is the int value of the send's Priority.
type QoS interface {
	Delay(tenant string, class int, n int64) time.Duration
}

// Stats reports bus activity. Sends/Bytes count delivered messages
// only; a dropped or partitioned send lands in Drops/DroppedBytes and
// never touches the aggregation-batch accounting.
type Stats struct {
	Sends        int64
	Bytes        int64
	Aggregated   int64 // sends that rode in a batch without paying fixed cost
	Batches      int64
	Flushes      int64         // partial batches closed out by Flush
	FlushCost    time.Duration // deferred fixed costs charged at flush time
	QueueDelay   time.Duration // cumulative priority queuing delay imposed
	Drops        int64         // sends failed by the network fault plane
	DroppedBytes int64
	NetDelay     time.Duration // injected delay on delivered messages

	// Per-class breakdown of QueueDelay (priority queuing plus any QoS
	// scheduling delay); the three always sum to QueueDelay.
	QueueDelayHigh   time.Duration
	QueueDelayNormal time.Duration
	QueueDelayLow    time.Duration
}

// Bus is one node's view of the data exchange fabric.
type Bus struct {
	link *sim.Device
	cfg  Config

	mu          sync.Mutex
	stats       Stats
	batchFill   int   // small sends since the last fixed-cost payment
	outstanding int64 // high-priority bytes notionally in flight
	metrics     busMetrics
	qos         QoS // tenant-aware scheduler; nil on a bare bus
	net         atomic.Pointer[netAttach]
}

// netAttach is the fault plane every send consults, and this bus's
// endpoint name on it.
type netAttach struct {
	hook  NetHook
	local string
}

// busMetrics is the bus's obs instrument set, labelled by path so RDMA
// and TCP traffic stay distinguishable on /metrics. Workers of one
// service share instruments (the registry dedups by name), so totals
// survive worker rescaling.
type busMetrics struct {
	sends, bytes, aggregated, batches *obs.Counter
	drops                             *obs.Counter
	netDelay                          *obs.Counter // injected delay, ns
	sendLat, flushLat                 *obs.Histogram
}

// pathLabel names the transport for metric labels.
func (p Path) pathLabel() string {
	if p == TCP {
		return "tcp"
	}
	return "rdma"
}

// SetObs registers the bus's telemetry with an obs registry. Call at
// wiring time, before the bus carries traffic.
func (b *Bus) SetObs(reg *obs.Registry) {
	label := `{path="` + b.cfg.Path.pathLabel() + `"}`
	b.mu.Lock()
	b.metrics = busMetrics{
		sends:      reg.Counter("bus_sends_total" + label),
		bytes:      reg.Counter("bus_bytes_total" + label),
		aggregated: reg.Counter("bus_aggregated_total" + label),
		batches:    reg.Counter("bus_batches_total" + label),
		drops:      reg.Counter("bus_drops_total" + label),
		netDelay:   reg.Counter("bus_net_delay_ns_total" + label),
		sendLat:    reg.Histogram("bus_send_seconds" + label),
		flushLat:   reg.Histogram("bus_flush_seconds" + label),
	}
	b.mu.Unlock()
}

// New builds a bus over the given path with its default link device.
func New(cfg Config) *Bus {
	if cfg.AggregationCount <= 0 {
		cfg.AggregationCount = 16
	}
	if cfg.SmallIOBytes <= 0 {
		cfg.SmallIOBytes = 64 << 10
	}
	if cfg.DropTimeout <= 0 {
		cfg.DropTimeout = 500 * time.Microsecond
	}
	class := sim.NetRDMA
	if cfg.Path == TCP {
		class = sim.Net10GbE
	}
	return &Bus{link: sim.NewDeviceOf("bus", class), cfg: cfg}
}

// Link exposes the underlying link device for utilization reporting.
func (b *Bus) Link() *sim.Device { return b.link }

// SetNet attaches a network fault plane and names this bus's endpoint
// on it. Every subsequent send is submitted to the hook for a
// drop/delay/partition verdict before any cost or aggregation state is
// touched.
func (b *Bus) SetNet(h NetHook, local string) {
	b.net.Store(&netAttach{hook: h, local: local})
}

// SetQoS attaches a tenant-aware scheduler. Every subsequent tenant-
// tagged send pays its weighted-fair queuing delay on top of the
// priority model. Every stream worker's bus carries one; a bare bus
// (ablations, benchmarks) schedules no tenant.
func (b *Bus) SetQoS(q QoS) {
	b.mu.Lock()
	b.qos = q
	b.mu.Unlock()
}

// Send models transferring n bytes at the given priority and returns the
// modelled latency the sender observes. It is the fault-blind cost-model
// call (equivalent to SendLinkT from this bus's own endpoint to an
// unnamed peer): a fault-plane verdict against the anonymous link is
// absorbed as latency rather than surfaced, which suits the callers
// that assume delivery — ablations and benchmarks. No data path uses
// it; the produce path must see failures and sends with SendLinkT.
func (b *Bus) Send(n int64, prio Priority) time.Duration {
	var delay time.Duration
	var err error
	if a := b.net.Load(); a != nil && a.hook != nil {
		delay, err = a.hook.Deliver(a.local, "", n)
	}
	if err != nil {
		return b.failSend(n, delay)
	}
	return b.deliver(n, prio, delay, "")
}

// SendLinkT models transferring n bytes on the directed link from→to at
// the given priority. The network fault plane (when attached) rules on
// the message first: a drop or partition returns the time the sender
// lost (injected delay plus the drop timeout) and a non-nil error, and
// leaves the aggregation batch accounting untouched — an undelivered
// message must never fill a batch slot or double-charge the batch's
// deferred fixed cost when it is retried. The send carries a tenant
// identity: the attached QoS scheduler (when any) charges it its
// weighted-fair queuing delay within the priority class. The empty
// tenant is the system identity and is never QoS-delayed.
func (b *Bus) SendLinkT(from, to string, n int64, prio Priority, tenant string) (time.Duration, error) {
	var delay time.Duration
	var err error
	if a := b.net.Load(); a != nil && a.hook != nil {
		delay, err = a.hook.Deliver(from, to, n)
	}
	if err != nil {
		return b.failSend(n, delay), err
	}
	return b.deliver(n, prio, delay, tenant), nil
}

// failSend accounts an undelivered message: the sender burns the
// injected delay plus the drop timeout, and nothing else changes.
func (b *Bus) failSend(n int64, delay time.Duration) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.stats.Drops++
	b.stats.DroppedBytes += n
	b.metrics.drops.Inc()
	return delay + b.cfg.DropTimeout
}

// deliver charges a delivered message: transfer cost, aggregation-batch
// fixed-cost amortization, priority queuing, tenant QoS scheduling, and
// any injected delay.
func (b *Bus) deliver(n int64, prio Priority, delay time.Duration, tenant string) time.Duration {
	spec := b.link.Spec()
	fixed := spec.WriteLatency
	transfer := b.link.Write(n) - fixed // bandwidth term only

	b.mu.Lock()
	defer b.mu.Unlock()
	b.stats.Sends++
	b.stats.Bytes += n
	b.metrics.sends.Inc()
	b.metrics.bytes.Add(n)

	cost := transfer
	paysFixed := true
	if b.cfg.Aggregation && n <= b.cfg.SmallIOBytes {
		b.batchFill++
		if b.batchFill >= b.cfg.AggregationCount {
			b.batchFill = 0
			b.stats.Batches++
			b.metrics.batches.Inc()
		} else {
			paysFixed = false
			b.stats.Aggregated++
			b.metrics.aggregated.Inc()
		}
	}
	if paysFixed {
		cost += fixed
	}

	// Priority scheduling: lower-priority traffic queues behind the
	// notional in-flight high-priority bytes.
	var queued time.Duration
	if prio != High && b.outstanding > 0 {
		q := time.Duration(float64(b.outstanding) / float64(spec.WriteBandwidth) * float64(time.Second))
		if prio == Low {
			q *= 2
		}
		queued += q
	}
	// Tenant QoS: weighted-fair queuing within the priority class.
	if b.qos != nil {
		queued += b.qos.Delay(tenant, int(prio), n)
	}
	if queued > 0 {
		cost += queued
		b.stats.QueueDelay += queued
		switch prio {
		case High:
			b.stats.QueueDelayHigh += queued
		case Low:
			b.stats.QueueDelayLow += queued
		default:
			b.stats.QueueDelayNormal += queued
		}
	}
	if prio == High {
		// High-priority bytes decay as they complete; model a window of
		// the last send.
		b.outstanding = n
	} else if b.outstanding > 0 {
		b.outstanding /= 2
	}
	if delay > 0 {
		cost += delay
		b.stats.NetDelay += delay
		b.metrics.netDelay.Add(int64(delay))
	}
	b.metrics.sendLat.Observe(cost)
	return cost
}

// Flush closes out a partially filled aggregation batch, charging the
// fixed per-operation cost the batched sends deferred, and returns that
// cost. Without it, trailing small sends ride "free" forever and the
// aggregation stats understate latency. It is a no-op when no batch is
// pending.
func (b *Bus) Flush() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.flushLocked()
}

func (b *Bus) flushLocked() time.Duration {
	if b.batchFill == 0 {
		return 0
	}
	b.batchFill = 0
	fixed := b.link.Spec().WriteLatency
	b.stats.Batches++
	b.stats.Flushes++
	b.stats.FlushCost += fixed
	b.metrics.batches.Inc()
	b.metrics.flushLat.Observe(fixed)
	return fixed
}

// Stats returns a snapshot of bus counters. Snapshotting flushes any
// pending aggregation batch first so Aggregated/Batches never understate
// the deferred fixed costs.
func (b *Bus) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.flushLocked()
	return b.stats
}

// PerMessageFixedCost reports the path's fixed per-operation latency, the
// quantity RDMA exists to shrink. As a path-config query it also flushes
// any pending aggregation batch.
func (b *Bus) PerMessageFixedCost() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.flushLocked()
	return b.link.Spec().WriteLatency
}
