package kafkafs

import (
	"errors"
	"fmt"
	"testing"
)

func newBroker(t testing.TB, cfg Config) *Broker {
	t.Helper()
	return New(cfg)
}

func TestProduceConsume(t *testing.T) {
	b := newBroker(t, Config{})
	if err := b.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	if err := b.CreateTopic("t", 2); err == nil {
		t.Fatal("duplicate topic accepted")
	}
	off, cost, err := b.Produce("t", 0, []byte("k"), []byte("hello"))
	if err != nil || off != 0 || cost <= 0 {
		t.Fatalf("produce: %d %v %v", off, cost, err)
	}
	if off, _, _ := b.Produce("t", 0, []byte("k"), []byte("world")); off != 1 {
		t.Fatalf("second offset: %d", off)
	}
	// Offsets are per partition.
	off2, _, _ := b.Produce("t", 1, []byte("k"), []byte("x"))
	if off2 != 0 {
		t.Fatalf("partition 1 offset: %d", off2)
	}
}

func TestErrors(t *testing.T) {
	b := newBroker(t, Config{})
	if _, _, err := b.Produce("nope", 0, nil, nil); !errors.Is(err, ErrUnknownTopic) {
		t.Fatalf("produce unknown: %v", err)
	}
	b.CreateTopic("t", 1)
	if _, _, err := b.Produce("t", 5, nil, nil); !errors.Is(err, ErrBadPartition) {
		t.Fatalf("bad partition: %v", err)
	}
}

func TestStorageBytesCountReplication(t *testing.T) {
	b := newBroker(t, Config{Replication: 3})
	b.CreateTopic("t", 1)
	b.Produce("t", 0, []byte("kk"), []byte("vvvvvvvv")) // 10 logical bytes
	if got := b.StorageBytes(); got != 30 {
		t.Fatalf("storage: %d, want 30", got)
	}
}

func TestAcksAllSlowerThanAcksOne(t *testing.T) {
	one := newBroker(t, Config{AcksAll: false})
	all := newBroker(t, Config{AcksAll: true})
	one.CreateTopic("t", 1)
	all.CreateTopic("t", 1)
	_, c1, _ := one.Produce("t", 0, []byte("k"), make([]byte, 1024))
	_, cAll, _ := all.Produce("t", 0, []byte("k"), make([]byte, 1024))
	if cAll <= c1 {
		t.Fatalf("acks=all (%v) not slower than acks=1 (%v)", cAll, c1)
	}
}

func TestSegmentRolling(t *testing.T) {
	b := newBroker(t, Config{SegmentBytes: 100})
	b.CreateTopic("t", 1)
	for i := 0; i < 50; i++ {
		b.Produce("t", 0, []byte("key"), make([]byte, 30))
	}
	b.mu.Lock()
	segs := len(b.topics["t"].parts[0].segments)
	b.mu.Unlock()
	if segs < 10 {
		t.Fatalf("segments: %d, want rolling", segs)
	}
	// Rolling keeps every byte: 50 records of 33 bytes, three copies.
	if got := b.StorageBytes(); got != 3*50*33 {
		t.Fatalf("storage across segments: %d", got)
	}
}

func TestScalePartitionsMovesData(t *testing.T) {
	b := newBroker(t, Config{})
	b.CreateTopic("t", 4)
	for i := 0; i < 1000; i++ {
		b.Produce("t", i%4, []byte("k"), make([]byte, 100))
	}
	moved, cost, err := b.ScalePartitions("t", 8)
	if err != nil {
		t.Fatal(err)
	}
	// Unlike StreamLake's metadata-only remap, scaling a file-based
	// broker moves real data.
	if moved == 0 || cost <= 0 {
		t.Fatalf("scale moved %d bytes, cost %v", moved, cost)
	}
	if _, _, err := b.Produce("t", 7, []byte("k"), nil); err != nil {
		t.Fatalf("produce to a new partition after scale: %v", err)
	}
	if _, _, err := b.ScalePartitions("nope", 8); err == nil {
		t.Fatal("scale unknown topic")
	}
}

func TestThroughputParityData(t *testing.T) {
	// Sanity for Table 1's stream row: page-cache acks keep per-message
	// cost small and flat as volume grows.
	b := newBroker(t, Config{})
	b.CreateTopic("t", 3)
	var total int64
	for i := 0; i < 3000; i++ {
		_, c, err := b.Produce("t", i%3, []byte("k"), make([]byte, 1024))
		if err != nil {
			t.Fatal(err)
		}
		total += int64(c)
	}
	avg := total / 3000
	if avg > 20_000 { // ns; page-cache ack must stay microsecond-scale
		t.Fatalf("avg produce cost %d ns", avg)
	}
}

func ExampleBroker_Produce() {
	b := New(Config{})
	b.CreateTopic("demo", 1)
	off, _, _ := b.Produce("demo", 0, []byte("key"), []byte("value"))
	fmt.Println(off)
	// Output: 0
}
