// Package streamsvc implements StreamLake's message streaming service
// (Section V-A, Figure 6): producers and consumers connected through a
// stream dispatcher to stream workers, which persist messages in stream
// objects. The dispatcher keeps topics, streams, workers and their
// relationships as key-value pairs in a fault-tolerant KV store; stream
// i's home is worker i mod n, and while it is down the up worker that
// rendezvous hashing ranks first serves the stream; scaling the worker
// fleet is a metadata-only remap with no data migration. Exactly-once delivery is
// provided by a transaction manager running two-phase commit across the
// stream workers.
package streamsvc

import (
	"time"

	"streamlake/internal/colfile"
	"streamlake/internal/plog"
)

// ConvertConfig is the convert_2_table block of the topic configuration
// (Figure 8): automatic conversion of stream messages to table records.
type ConvertConfig struct {
	Enabled     bool
	TableName   string
	TablePath   string
	TableSchema colfile.Schema
	// PartitionColumn partitions the produced table.
	PartitionColumn string
	// SplitOffset triggers conversion after this many accumulated
	// messages (the paper's default: 10^7).
	SplitOffset int64
	// SplitTime triggers conversion after this much time (the paper's
	// default: 36000 s).
	SplitTime time.Duration
	// DeleteMsg reclaims converted stream slices, keeping one copy of
	// the data (the storage saving of Section V-B).
	DeleteMsg bool
	// Transform, when set, applies the table schema to a raw message
	// (returning ok=false to reject it) instead of expecting
	// rowcodec-encoded rows — the schema-application step of the
	// conversion.
	Transform func(key, value []byte) (colfile.Row, bool) `json:"-"`
}

// ArchiveConfig is the archive block of the topic configuration
// (Figure 8).
type ArchiveConfig struct {
	Enabled bool
	// ExternalURL, when set, exports archives to an external system
	// instead of the StreamLake archive pool.
	ExternalURL string
	// ArchiveBytes is the accumulated data volume that triggers
	// archiving (the paper expresses it in MB).
	ArchiveBytes int64
	// RowToCol archives in columnar format.
	RowToCol bool
}

// TopicConfig configures one topic (Figure 8).
type TopicConfig struct {
	Name string
	// StreamNum is the topic's parallelism: how many streams (and
	// stream objects) serve it.
	StreamNum int
	// QuotaPerSec caps each stream's processing rate.
	QuotaPerSec int64
	// SCMCache enables the storage-class-memory cache.
	SCMCache bool
	// Redundancy selects the stream objects' redundancy (default 3x).
	Redundancy plog.Redundancy
	Convert    ConvertConfig
	Archive    ArchiveConfig
}

func (c *TopicConfig) applyDefaults() {
	if c.StreamNum <= 0 {
		c.StreamNum = 1
	}
	if c.Convert.Enabled {
		if c.Convert.SplitOffset <= 0 {
			c.Convert.SplitOffset = 10_000_000
		}
		if c.Convert.SplitTime <= 0 {
			c.Convert.SplitTime = 36000 * time.Second
		}
	}
	if c.Archive.Enabled && c.Archive.ArchiveBytes <= 0 {
		c.Archive.ArchiveBytes = 256 << 20
	}
}

// Message is one delivered record.
type Message struct {
	Topic     string
	Stream    int
	Key       []byte
	Value     []byte
	Offset    int64
	Timestamp time.Duration
}
