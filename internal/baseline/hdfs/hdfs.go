// Package hdfs is the reproduction's HDFS baseline (Section VII): a
// namenode/datanode distributed file system with fixed-size blocks and
// 3x replication. It exists for Table 1's storage and batch rows — the
// six-full-copies ETL practice and the 33% disk utilization of
// replication — and for the file-based metadata listing whose linear
// cost Figure 15(a) contrasts with metadata acceleration.
package hdfs

import (
	"errors"
	"fmt"
	"sort"
	"strings"
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
	// DiscardData keeps only file sizes, not contents — used by large
	// benchmark runs where only storage accounting and I/O costs
	// matter. Read returns zero-filled data of the right length.
	DiscardData bool
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

// block is one replicated block.
type block struct {
	data     []byte
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
	clock *sim.Clock
	nodes []*sim.Device
	net   *sim.Device

	mu    sync.Mutex
	files map[string]*file
	rr    int
}

// ErrNotFound is returned for missing paths.
var ErrNotFound = errors.New("hdfs: file not found")

// New builds a cluster.
func New(clock *sim.Clock, cfg Config) *FS {
	cfg.applyDefaults()
	fs := &FS{
		cfg:   cfg,
		clock: clock,
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
func (fs *FS) Write(path string, data []byte) (time.Duration, error) {
	f := &file{size: int64(len(data))}
	var cost time.Duration
	for off := int64(0); off < int64(len(data)) || (len(data) == 0 && off == 0); off += fs.cfg.BlockSize {
		end := off + fs.cfg.BlockSize
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		b := &block{size: end - off}
		if !fs.cfg.DiscardData {
			b.data = data[off:end]
		}
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
	return cost, nil
}

// Read returns the file's contents, reading each block from its first
// replica.
func (fs *FS) Read(path string) ([]byte, time.Duration, error) {
	fs.mu.Lock()
	f, ok := fs.files[path]
	fs.mu.Unlock()
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	out := make([]byte, 0, f.size)
	var cost time.Duration
	for _, b := range f.blocks {
		node := 0
		if len(b.replicas) > 0 {
			node = b.replicas[0]
		}
		cost += fs.nodes[node].Read(b.size)
		cost += fs.net.Read(b.size)
		if fs.cfg.DiscardData {
			out = append(out, make([]byte, b.size)...)
		} else {
			out = append(out, b.data...)
		}
	}
	return out, cost, nil
}

// Delete removes a path.
func (fs *FS) Delete(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[path]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	delete(fs.files, path)
	return nil
}

// List returns paths under prefix; the namenode answers from memory but
// the RPC and listing cost is linear in the result size — the file-
// based catalog behaviour of Figure 15(a).
func (fs *FS) List(prefix string) ([]string, time.Duration) {
	fs.mu.Lock()
	var out []string
	for p := range fs.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	fs.mu.Unlock()
	sort.Strings(out)
	const perEntry = 120 * time.Microsecond
	return out, time.Duration(len(out)) * perEntry
}

// Exists reports whether path exists.
func (fs *FS) Exists(path string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, ok := fs.files[path]
	return ok
}

// Size returns a file's length.
func (fs *FS) Size(path string) (int64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return f.size, nil
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
