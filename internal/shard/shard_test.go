package shard

import (
	"fmt"
	"testing"

	"streamlake/internal/plog"
	"streamlake/internal/pool"
	"streamlake/internal/sim"
)

func TestForKeyRange(t *testing.T) {
	for i := 0; i < 1000; i++ {
		s := ForKey([]byte(fmt.Sprintf("key-%d", i)))
		if s >= NumShards {
			t.Fatalf("shard %d out of range", s)
		}
	}
}

func TestForKeyEvenDistribution(t *testing.T) {
	counts := make(map[ID]int)
	n := 100_000
	for i := 0; i < n; i++ {
		counts[ForKey([]byte(fmt.Sprintf("topic/%d/key-%d", i%7, i)))]++
	}
	// With 100k keys over 4096 shards, expect ~24 per shard; no shard
	// should be wildly hot.
	for s, c := range counts {
		if c > 100 {
			t.Fatalf("shard %d has %d keys (hot spot)", s, c)
		}
	}
	if len(counts) < 4000 {
		t.Fatalf("only %d shards used", len(counts))
	}
}

func TestForKeyDeterministic(t *testing.T) {
	if ForKey([]byte("abc")) != ForKey([]byte("abc")) {
		t.Fatal("ForKey not deterministic")
	}
}

func newSpace(t *testing.T) *Space {
	t.Helper()
	p := pool.New("shardtest", sim.NewClock(), sim.NVMeSSD, 3, 1<<20)
	return NewSpace(plog.NewManager(p, 4096), plog.ReplicateN(2))
}

func TestSpaceAppendRead(t *testing.T) {
	sp := newSpace(t)
	loc, cost, err := sp.Append(7, []byte("record-1"))
	if err != nil || cost <= 0 {
		t.Fatalf("append: %v", err)
	}
	got, _, err := sp.Read(loc)
	if err != nil || string(got) != "record-1" {
		t.Fatalf("read: %q %v", got, err)
	}
}

func TestSpaceRollsPLogChain(t *testing.T) {
	sp := newSpace(t) // 4096-byte PLogs
	var locs []Loc
	for i := 0; i < 10; i++ {
		loc, _, err := sp.Append(3, make([]byte, 1000))
		if err != nil {
			t.Fatal(err)
		}
		locs = append(locs, loc)
	}
	logs := chain(sp, 3)
	if len(logs) < 3 {
		t.Fatalf("chain length %d, want rolling", len(logs))
	}
	// Every record still readable across the chain.
	for i, loc := range locs {
		if _, _, err := sp.Read(loc); err != nil {
			t.Fatalf("read %d across chain: %v", i, err)
		}
	}
	// All but the open log are sealed.
	for _, id := range logs[:len(logs)-1] {
		if l := spLog(t, sp, id); !l.Sealed() {
			t.Fatalf("log %d in chain not sealed", id)
		}
	}
}

func spLog(t *testing.T, sp *Space, id plog.ID) *plog.PLog {
	t.Helper()
	l := sp.mgr.Get(id)
	if l == nil {
		t.Fatalf("no plog %d", id)
	}
	return l
}

func TestSpaceDrop(t *testing.T) {
	sp := newSpace(t)
	loc, _, err := sp.Append(9, []byte("doomed"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Drop(9); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sp.Read(loc); err == nil {
		t.Fatal("read after drop succeeded")
	}
	if got := chain(sp, 9); len(got) != 0 {
		t.Fatalf("chain after drop: %v", got)
	}
	if sp.mgr.Count() != 0 {
		t.Fatalf("manager still holds %d logs", sp.mgr.Count())
	}
}

func TestSpaceShardsIsolated(t *testing.T) {
	sp := newSpace(t)
	l1, _, _ := sp.Append(1, []byte("one"))
	l2, _, _ := sp.Append(2, []byte("two"))
	if l1.Log == l2.Log {
		t.Fatal("shards share a PLog")
	}
}

// chain returns the PLog chain of shard s, oldest first.
func chain(sp *Space, s ID) []plog.ID {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return append([]plog.ID(nil), sp.chains[s]...)
}
