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
}

const (
	// aggregationCount is the number of small sends amortizing one
	// fixed cost.
	aggregationCount = 16
	// smallIOBytes is the largest send eligible for aggregation.
	smallIOBytes = 64 << 10
	// dropTimeout is the virtual time a sender waits before concluding
	// a message was lost. Charged, on top of any injected delay, for
	// every send the network fault plane fails.
	dropTimeout = 500 * time.Microsecond
)

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
	QueueDelay   time.Duration // cumulative priority queuing delay imposed
	Drops        int64         // sends failed by the network fault plane
	DroppedBytes int64
	NetDelay     time.Duration // injected delay on delivered messages

	// Per-class breakdown of QueueDelay (priority queuing plus any QoS
	// scheduling delay); the three always sum to QueueDelay.
	QueueDelayHigh   time.Duration
	QueueDelayNormal time.Duration
	QueueDelayLow    time.Duration

	// SendLat is the cost of each delivered send, kept under the bus's
	// lock, so sampling it is a plain add and not an atomic one.
	SendLat obs.HistogramSnapshot
}

// Add folds o's counts into s.
func (s *Stats) Add(o Stats) {
	s.Sends += o.Sends
	s.Bytes += o.Bytes
	s.Aggregated += o.Aggregated
	s.Batches += o.Batches
	s.QueueDelay += o.QueueDelay
	s.Drops += o.Drops
	s.DroppedBytes += o.DroppedBytes
	s.NetDelay += o.NetDelay
	s.QueueDelayHigh += o.QueueDelayHigh
	s.QueueDelayNormal += o.QueueDelayNormal
	s.QueueDelayLow += o.QueueDelayLow
	s.SendLat.Add(o.SendLat)
}

// Tally holds the counts of buses their owner has retired (Retire), so
// totals summed over a changing set of buses never go down.
type Tally struct {
	mu sync.Mutex
	s  Stats
}

// Stats returns the retired buses' summed counts.
func (t *Tally) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.s
}

// Bus is one node's view of the data exchange fabric.
type Bus struct {
	link *sim.Device
	cfg  Config

	mu          sync.Mutex
	stats       Stats
	batchFill   int    // small sends since the last fixed-cost payment
	outstanding int64  // high-priority bytes notionally in flight
	qos         QoS    // tenant-aware scheduler; nil on a bare bus
	retired     *Tally // set by Retire; stats move there as they are taken
	net         atomic.Pointer[netAttach]
}

// netAttach is the fault plane every send consults, and this bus's
// endpoint name on it.
type netAttach struct {
	hook  NetHook
	local string
}

// label is the path's metric label set: RDMA and TCP traffic stay
// distinguishable on /metrics.
func (p Path) label() string {
	if p == TCP {
		return `{path="tcp"}`
	}
	return `{path="rdma"}`
}

// RegisterTotals publishes the bus counter families of path p as
// CounterFuncs, and its send latencies as a HistogramFunc, over read,
// which must sum every bus that ever carried the owner's traffic: its
// live buses' Peek plus its retired buses' Tally.
func RegisterTotals(reg *obs.Registry, p Path, read func() Stats) {
	label := p.label()
	reg.HistogramFunc("bus_send_seconds"+label, func() obs.HistogramSnapshot { return read().SendLat })
	// A batch closes only when it fills, so no flush is ever observed;
	// the empty histogram keeps its /metrics series.
	reg.Histogram("bus_flush_seconds" + label)
	reg.CounterFunc("bus_sends_total"+label, func() int64 { return read().Sends })
	reg.CounterFunc("bus_bytes_total"+label, func() int64 { return read().Bytes })
	reg.CounterFunc("bus_aggregated_total"+label, func() int64 { return read().Aggregated })
	reg.CounterFunc("bus_batches_total"+label, func() int64 { return read().Batches })
	reg.CounterFunc("bus_drops_total"+label, func() int64 { return read().Drops })
	reg.CounterFunc("bus_net_delay_ns_total"+label, func() int64 { return int64(read().NetDelay) })
}

// Retire moves the bus's counts into t, and every later count as it is
// taken, so a send still in flight on a dropped bus is not lost. A
// pending aggregation batch is not flushed.
func (b *Bus) Retire(t *Tally) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.retired = t
	b.forwardLocked()
}

// forwardLocked moves a retired bus's counts into its tally.
func (b *Bus) forwardLocked() {
	if b.retired == nil {
		return
	}
	b.retired.mu.Lock()
	b.retired.s.Add(b.stats)
	b.retired.mu.Unlock()
	b.stats = Stats{}
}

// New builds a bus over the given path with its default link device.
func New(cfg Config) *Bus {
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
	b.forwardLocked()
	return delay + dropTimeout
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

	cost := transfer
	paysFixed := true
	if b.cfg.Aggregation && n <= smallIOBytes {
		b.batchFill++
		if b.batchFill >= aggregationCount {
			b.batchFill = 0
			b.stats.Batches++
		} else {
			paysFixed = false
			b.stats.Aggregated++
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
	}
	b.stats.SendLat.Observe(cost)
	b.forwardLocked()
	return cost
}

// Peek returns the bus counters as they stand. Reading them moves no
// virtual cost.
func (b *Bus) Peek() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}
