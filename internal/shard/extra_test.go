package shard

import (
	"testing"

	"streamlake/internal/plog"
	"streamlake/internal/pool"
	"streamlake/internal/sim"
)

func TestSpaceReadUnknownLog(t *testing.T) {
	sp := newSpace(t)
	if _, _, err := sp.Read(Loc{Log: 999, Len: 4}); err == nil {
		t.Fatal("read from unknown log succeeded")
	}
}

func TestDestroyLogUnknown(t *testing.T) {
	sp := newSpace(t)
	if err := sp.DestroyLog(12345); err == nil {
		t.Fatal("destroying unknown log succeeded")
	}
}

func TestDestroyLogRemovesFromChain(t *testing.T) {
	p := pool.New("dlr", sim.NewClock(), sim.NVMeSSD, 3, 1<<20)
	sp := NewSpace(plog.NewManager(p, 1<<20), plog.ReplicateN(2))
	loc, _, err := sp.Append(5, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.DestroyLog(loc.Log); err != nil {
		t.Fatal(err)
	}
	if got := chain(sp, 5); len(got) != 0 {
		t.Fatalf("chain after destroy: %v", got)
	}
	// Appends after destroy roll a fresh log.
	loc2, _, err := sp.Append(5, []byte("again"))
	if err != nil {
		t.Fatal(err)
	}
	if loc2.Log == loc.Log {
		t.Fatal("destroyed log id reused")
	}
}

func TestSpaceAppendAfterSeal(t *testing.T) {
	p := pool.New("seal", sim.NewClock(), sim.NVMeSSD, 3, 1<<20)
	mgr := plog.NewManager(p, 1<<20)
	sp := NewSpace(mgr, plog.ReplicateN(2))
	loc, _, err := sp.Append(1, []byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	// Seal the open log out from under the space; the next append must
	// roll to a new log rather than fail.
	mgr.Get(loc.Log).Seal()
	loc2, _, err := sp.Append(1, []byte("second"))
	if err != nil {
		t.Fatal(err)
	}
	if loc2.Log == loc.Log {
		t.Fatal("append went to a sealed log")
	}
	// Both records readable.
	if _, _, err := sp.Read(loc); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sp.Read(loc2); err != nil {
		t.Fatal(err)
	}
}
