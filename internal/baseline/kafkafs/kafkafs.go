// Package kafkafs is the reproduction's Kafka baseline (Section VII):
// a file-based message broker that persists topic partitions as segment
// files on the brokers' local file systems, relying on the OS page cache
// for write acknowledgement and replicating segments to follower brokers
// over the cluster network. It exists so Table 1's storage and stream
// rows compare StreamLake against the same architecture the paper's
// customers ran.
package kafkafs

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"streamlake/internal/sim"
)

// Config tunes the broker cluster.
type Config struct {
	// Brokers is the node count (default 3).
	Brokers int
	// Replication is the partition replication factor (default 3).
	Replication int
	// SegmentBytes rolls segment files at this size (default 64 MiB).
	SegmentBytes int64
	// AcksAll makes produces wait for all replicas (acks=all); false
	// acknowledges after the leader's page-cache write (acks=1).
	AcksAll bool
	// FlushBytes fsyncs the page cache to disk after this many dirty
	// bytes (default 1 MiB), charging the disk off the ack path.
	FlushBytes int64
}

func (c *Config) applyDefaults() {
	if c.Brokers <= 0 {
		c.Brokers = 3
	}
	if c.Replication <= 0 {
		c.Replication = 3
	}
	if c.Replication > c.Brokers {
		c.Replication = c.Brokers
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 64 << 20
	}
	if c.FlushBytes <= 0 {
		c.FlushBytes = 1 << 20
	}
}

// segment is one log segment file; the broker keeps its size, not its
// records.
type segment struct {
	bytes int64
}

// partition is one replicated topic partition.
type partition struct {
	leader   int // broker index
	segments []*segment
	next     int64
	dirty    int64 // page-cache bytes not yet fsynced
}

type topic struct {
	parts []*partition
}

// Broker is a Kafka-style broker cluster.
type Broker struct {
	cfg   Config
	disks []*sim.Device
	net   *sim.Device
	// pageCache models the memcpy-speed ack path of acks=1.
	pageCache *sim.Device

	mu     sync.Mutex
	topics map[string]*topic
}

// Errors returned by the broker.
var (
	ErrUnknownTopic = errors.New("kafkafs: unknown topic")
	ErrBadPartition = errors.New("kafkafs: partition out of range")
)

// New builds a broker cluster.
func New(cfg Config) *Broker {
	cfg.applyDefaults()
	b := &Broker{
		cfg:    cfg,
		net:    sim.NewDeviceOf("kafka-net", sim.Net10GbE),
		topics: make(map[string]*topic),
	}
	for i := 0; i < cfg.Brokers; i++ {
		b.disks = append(b.disks, sim.NewDeviceOf(fmt.Sprintf("kafka-disk%d", i), sim.NVMeSSD))
	}
	// Page cache: RAM-speed with SCM-like spec.
	spec := sim.Spec(sim.SCM)
	spec.ReadLatency = 100 * time.Nanosecond
	spec.WriteLatency = 150 * time.Nanosecond
	spec.Capacity = 0
	b.pageCache = sim.NewDevice("kafka-pagecache", spec)
	return b
}

// CreateTopic declares a topic with n partitions, leaders round-robin
// across brokers.
func (b *Broker) CreateTopic(name string, partitions int) error {
	if partitions <= 0 {
		partitions = 1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.topics[name]; ok {
		return fmt.Errorf("kafkafs: topic %s exists", name)
	}
	t := &topic{}
	for i := 0; i < partitions; i++ {
		t.parts = append(t.parts, &partition{leader: i % b.cfg.Brokers})
	}
	b.topics[name] = t
	return nil
}

// Produce appends one message, returning its offset and the modelled
// produce latency.
func (b *Broker) Produce(name string, part int, key, value []byte) (int64, time.Duration, error) {
	b.mu.Lock()
	t, ok := b.topics[name]
	if !ok {
		b.mu.Unlock()
		return 0, 0, fmt.Errorf("%w: %s", ErrUnknownTopic, name)
	}
	if part < 0 || part >= len(t.parts) {
		b.mu.Unlock()
		return 0, 0, ErrBadPartition
	}
	p := t.parts[part]
	n := int64(len(key) + len(value))
	// Append to the active segment (page cache write).
	if len(p.segments) == 0 || p.segments[len(p.segments)-1].bytes+n > b.cfg.SegmentBytes {
		p.segments = append(p.segments, &segment{})
	}
	seg := p.segments[len(p.segments)-1]
	off := p.next
	p.next++
	seg.bytes += n
	p.dirty += n
	flush := p.dirty >= b.cfg.FlushBytes
	if flush {
		p.dirty = 0
	}
	leader := p.leader
	b.mu.Unlock()

	// Ack path: leader page-cache write; replication to followers rides
	// the network (followers also page-cache).
	cost := b.pageCache.Write(n)
	replCost := time.Duration(0)
	for r := 1; r < b.cfg.Replication; r++ {
		c := b.net.Write(n)
		fb := b.pageCache.Write(n)
		if c+fb > replCost {
			replCost = c + fb
		}
	}
	if b.cfg.AcksAll {
		cost += replCost
	}
	// Background fsync: disk busy time accrues (throughput-relevant)
	// but is off the ack path.
	if flush {
		for r := 0; r < b.cfg.Replication; r++ {
			b.disks[(leader+r)%b.cfg.Brokers].Write(b.cfg.FlushBytes)
		}
	}
	return off, cost, nil
}

// StorageBytes reports the cluster-wide physical bytes: logical log
// bytes times the replication factor — the Kafka column of Table 1.
func (b *Broker) StorageBytes() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var logical int64
	for _, t := range b.topics {
		for _, p := range t.parts {
			for _, s := range p.segments {
				logical += s.bytes
			}
		}
	}
	return logical * int64(b.cfg.Replication)
}

// ScalePartitions grows a topic to n partitions. Unlike StreamLake's
// metadata-only remap, a file-based broker must move segment data to
// rebalance leaders across brokers; the returned cost charges the
// network and disks for the bytes moved — the Figure 14(c) contrast.
func (b *Broker) ScalePartitions(name string, n int) (moved int64, cost time.Duration, err error) {
	b.mu.Lock()
	t, ok := b.topics[name]
	if !ok {
		b.mu.Unlock()
		return 0, 0, fmt.Errorf("%w: %s", ErrUnknownTopic, name)
	}
	old := len(t.parts)
	for i := old; i < n; i++ {
		t.parts = append(t.parts, &partition{leader: i % b.cfg.Brokers})
	}
	// Rebalancing moves a share of existing data proportional to the
	// ownership change.
	var logical int64
	for _, p := range t.parts[:old] {
		for _, s := range p.segments {
			logical += s.bytes
		}
	}
	b.mu.Unlock()
	if n > old && old > 0 {
		moved = logical * int64(n-old) / int64(n)
		cost = b.net.Write(moved)
		cost += b.disks[0].Write(moved)
	}
	return moved, cost, nil
}
