// Package hdfs is the reproduction's HDFS baseline (Section VII): a
// namenode/datanode distributed file system with fixed-size blocks and
// 3x replication. It exists for Table 1's storage and batch rows — the
// six-full-copies ETL practice and the 33% disk utilization of
// replication.
package hdfs

import (
	"fmt"
	"sync"
	"time"

	"streamlake/internal/sim"
)

// Config tunes the cluster.
type Config struct {
	// DataNodes is the datanode count (default 3).
	DataNodes int
	// Replication is the block replication factor (default 3).
	Replication int
	// BlockSize is the DFS block size (default 128 MiB).
	BlockSize int64
}

func (c *Config) applyDefaults() {
	if c.DataNodes <= 0 {
		c.DataNodes = 3
	}
	if c.Replication <= 0 {
		c.Replication = 3
	}
	if c.Replication > c.DataNodes {
		c.Replication = c.DataNodes
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 128 << 20
	}
}

// block is one replicated block. Only its size is kept: the baseline
// accounts for storage and I/O cost, and nothing reads contents back.
type block struct {
	size     int64
	replicas []int // datanode indices
}

type file struct {
	blocks []*block
	size   int64
}

// FS is the simulated HDFS cluster.
type FS struct {
	cfg   Config
	nodes []*sim.Device
	net   *sim.Device

	mu    sync.Mutex
	files map[string]*file
	rr    int
}

// New builds a cluster.
func New(cfg Config) *FS {
	cfg.applyDefaults()
	fs := &FS{
		cfg:   cfg,
		net:   sim.NewDeviceOf("hdfs-net", sim.Net10GbE),
		files: make(map[string]*file),
	}
	for i := 0; i < cfg.DataNodes; i++ {
		fs.nodes = append(fs.nodes, sim.NewDeviceOf(fmt.Sprintf("datanode%d", i), sim.NVMeSSD))
	}
	return fs
}

// Write stores data at path (overwrite), splitting into blocks and
// writing each block through the replication pipeline (client →
// datanode → datanode → datanode). The modelled cost is the pipeline's
// critical path.
func (fs *FS) Write(path string, data []byte) time.Duration {
	f := &file{size: int64(len(data))}
	var cost time.Duration
	for off := int64(0); off < int64(len(data)) || (len(data) == 0 && off == 0); off += fs.cfg.BlockSize {
		end := off + fs.cfg.BlockSize
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		b := &block{size: end - off}
		fs.mu.Lock()
		for r := 0; r < fs.cfg.Replication; r++ {
			b.replicas = append(b.replicas, (fs.rr+r)%fs.cfg.DataNodes)
		}
		fs.rr++
		fs.mu.Unlock()
		n := b.size
		// Pipeline: one network hop + disk write per replica, serial
		// along the chain.
		for _, node := range b.replicas {
			cost += fs.net.Write(n)
			cost += fs.nodes[node].Write(n)
		}
		f.blocks = append(f.blocks, b)
		if len(data) == 0 {
			break
		}
	}
	fs.mu.Lock()
	fs.files[path] = f
	fs.mu.Unlock()
	return cost
}

// StorageBytes reports physical bytes: logical size times replication —
// the HDFS column of Table 1 and the 33% disk-utilization arithmetic.
func (fs *FS) StorageBytes() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var logical int64
	for _, f := range fs.files {
		logical += f.size
	}
	return logical * int64(fs.cfg.Replication)
}
