package shard

import (
	"bytes"
	"testing"

	"streamlake/internal/plog"
	"streamlake/internal/pool"
	"streamlake/internal/sim"
)

func newBatchSpace(t *testing.T, logCap int64) *Space {
	t.Helper()
	p := pool.New("shard-batch", sim.NewClock(), sim.NVMeSSD, 4, 4<<20)
	return NewSpace(plog.NewManager(p, logCap), plog.ReplicateN(2))
}

func batchPayloads(sizes ...int) [][]byte {
	out := make([][]byte, len(sizes))
	for i, n := range sizes {
		out[i] = bytes.Repeat([]byte{byte(i + 1)}, n)
	}
	return out
}

func readBack(t *testing.T, sp *Space, locs []Loc, payloads [][]byte) {
	t.Helper()
	for i, loc := range locs {
		got, _, err := sp.Read(loc)
		if err != nil {
			t.Fatalf("read loc %d: %v", i, err)
		}
		if !bytes.Equal(got, payloads[i]) {
			t.Fatalf("loc %d: wrong bytes", i)
		}
	}
}

func TestAppendBatchBasic(t *testing.T) {
	sp := newBatchSpace(t, 1<<20)
	payloads := batchPayloads(100, 1, 4096)
	locs, _, err := sp.AppendBatch(ForKey([]byte("k")), payloads, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != len(payloads) {
		t.Fatalf("locs: %d", len(locs))
	}
	for _, loc := range locs[1:] {
		if loc.Log != locs[0].Log {
			t.Fatal("batch split across logs without pressure")
		}
	}
	readBack(t, sp, locs, payloads)
}

// A batch that overflows the open log seals it and lands whole on a
// fresh one — the chain-roll path.
func TestAppendBatchRollsChain(t *testing.T) {
	sp := newBatchSpace(t, 4096)
	s := ForKey([]byte("roll"))
	if _, _, err := sp.Append(s, bytes.Repeat([]byte{9}, 3500)); err != nil {
		t.Fatal(err)
	}
	payloads := batchPayloads(1000, 1000, 1000)
	locs, _, err := sp.AppendBatch(s, payloads, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(chain(sp, s)); n != 2 {
		t.Fatalf("chain length %d, want 2 after the roll", n)
	}
	readBack(t, sp, locs, payloads)
}

// A batch too large even for a fresh log falls back to per-payload
// appends, splitting across the chain rather than failing.
func TestAppendBatchOversizedFallsBack(t *testing.T) {
	sp := newBatchSpace(t, 4096)
	s := ForKey([]byte("big"))
	payloads := batchPayloads(3000, 3000, 3000)
	locs, _, err := sp.AppendBatch(s, payloads, nil)
	if err != nil {
		t.Fatalf("oversized batch should fall back, got %v", err)
	}
	if len(chain(sp, s)) < 2 {
		t.Fatal("fallback never split the chain")
	}
	readBack(t, sp, locs, payloads)
}

func TestAppendBatchEmptyAndSingleton(t *testing.T) {
	sp := newBatchSpace(t, 1<<20)
	if locs, _, err := sp.AppendBatch(0, nil, nil); err != nil || locs != nil {
		t.Fatalf("empty batch: %v %v", locs, err)
	}
	payloads := batchPayloads(77)
	locs, _, err := sp.AppendBatch(1, payloads, nil)
	if err != nil || len(locs) != 1 {
		t.Fatalf("singleton batch: %v", err)
	}
	readBack(t, sp, locs, payloads)
}
