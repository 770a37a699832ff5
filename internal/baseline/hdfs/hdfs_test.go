package hdfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"streamlake/internal/sim"
)

func newFS(t testing.TB, cfg Config) *FS {
	t.Helper()
	return New(sim.NewClock(), cfg)
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs := newFS(t, Config{})
	data := bytes.Repeat([]byte("hdfs"), 1000)
	cost, err := fs.Write("/data/part-0000", data)
	if err != nil || cost <= 0 {
		t.Fatal(err)
	}
	got, rcost, err := fs.Read("/data/part-0000")
	if err != nil || rcost <= 0 || !bytes.Equal(got, data) {
		t.Fatalf("read: %v", err)
	}
	if n, _ := fs.Size("/data/part-0000"); n != int64(len(data)) {
		t.Fatalf("size: %d", n)
	}
	if !fs.Exists("/data/part-0000") || fs.Exists("/nope") {
		t.Fatal("Exists broken")
	}
}

func TestBlockSplitting(t *testing.T) {
	fs := newFS(t, Config{BlockSize: 1000})
	data := make([]byte, 3500)
	for i := range data {
		data[i] = byte(i)
	}
	fs.Write("/big", data)
	fs.mu.Lock()
	blocks := len(fs.files["/big"].blocks)
	fs.mu.Unlock()
	if blocks != 4 {
		t.Fatalf("blocks: %d, want 4", blocks)
	}
	got, _, _ := fs.Read("/big")
	if !bytes.Equal(got, data) {
		t.Fatal("multi-block read mismatch")
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

func TestDeleteAndErrors(t *testing.T) {
	fs := newFS(t, Config{})
	fs.Write("/f", []byte("x"))
	if err := fs.Delete("/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete("/f"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	if _, _, err := fs.Read("/f"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read deleted: %v", err)
	}
	if _, err := fs.Size("/f"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("size deleted: %v", err)
	}
}

func TestListLinearCost(t *testing.T) {
	fs := newFS(t, Config{})
	for i := 0; i < 200; i++ {
		fs.Write(fmt.Sprintf("/warehouse/tbl/part=%03d/f", i), []byte("x"))
	}
	paths, cost := fs.List("/warehouse/tbl/")
	if len(paths) != 200 || cost <= 0 {
		t.Fatalf("list: %d paths", len(paths))
	}
	_, small := fs.List("/warehouse/tbl/part=001")
	if small >= cost {
		t.Fatal("listing cost not proportional to results")
	}
}

func TestEmptyFile(t *testing.T) {
	fs := newFS(t, Config{})
	if _, err := fs.Write("/empty", nil); err != nil {
		t.Fatal(err)
	}
	got, _, err := fs.Read("/empty")
	if err != nil || len(got) != 0 {
		t.Fatalf("empty read: %v %v", got, err)
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
