package hdfs

import (
	"fmt"
	"testing"
)

func newFS(t testing.TB, cfg Config) *FS {
	t.Helper()
	return New(cfg)
}

func TestBlockSplitting(t *testing.T) {
	fs := newFS(t, Config{BlockSize: 1000})
	if cost := fs.Write("/big", make([]byte, 3500)); cost <= 0 {
		t.Fatalf("write: cost %v", cost)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var sizes []int64
	for _, b := range fs.files["/big"].blocks {
		sizes = append(sizes, b.size)
	}
	if fmt.Sprint(sizes) != "[1000 1000 1000 500]" {
		t.Fatalf("block sizes %v, want three full blocks and a 500-byte tail", sizes)
	}
}

func TestReplicationAccounting(t *testing.T) {
	fs := newFS(t, Config{Replication: 3})
	fs.Write("/a", make([]byte, 1000))
	fs.Write("/b", make([]byte, 500))
	if got := fs.StorageBytes(); got != 4500 {
		t.Fatalf("storage: %d, want 4500", got)
	}
}

func TestOverwriteReplaces(t *testing.T) {
	fs := newFS(t, Config{})
	fs.Write("/f", make([]byte, 1000))
	fs.Write("/f", make([]byte, 200))
	if got := fs.StorageBytes(); got != 600 {
		t.Fatalf("storage after overwrite: %d", got)
	}
}

func TestEmptyFile(t *testing.T) {
	fs := newFS(t, Config{})
	fs.Write("/empty", nil)
	fs.mu.Lock()
	f := fs.files["/empty"]
	fs.mu.Unlock()
	if f == nil || len(f.blocks) != 1 || f.size != 0 || fs.StorageBytes() != 0 {
		t.Fatalf("empty file: %+v, %d bytes stored", f, fs.StorageBytes())
	}
}

func TestReplicasOnDistinctNodes(t *testing.T) {
	fs := newFS(t, Config{DataNodes: 5, Replication: 3})
	fs.Write("/f", make([]byte, 100))
	fs.mu.Lock()
	defer fs.mu.Unlock()
	reps := fs.files["/f"].blocks[0].replicas
	seen := map[int]bool{}
	for _, r := range reps {
		if seen[r] {
			t.Fatalf("replica repeated on node %d", r)
		}
		seen[r] = true
	}
	if len(reps) != 3 {
		t.Fatalf("replicas: %v", reps)
	}
}
