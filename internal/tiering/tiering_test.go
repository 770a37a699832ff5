package tiering

import (
	"testing"
	"time"

	"streamlake/internal/sim"
)

func newService(clock *sim.Clock) *Service {
	return NewService(clock, Policy{DemoteAfter: time.Hour, ArchiveAfter: 24 * time.Hour})
}

func TestRegisterAndTierOf(t *testing.T) {
	s := newService(sim.NewClock())
	s.Register("plog-1", 1<<20, SSD)
	tier, err := s.TierOf("plog-1")
	if err != nil || tier != SSD {
		t.Fatalf("tier: %v %v", tier, err)
	}
	if _, err := s.TierOf("nope"); err != ErrUnknownItem {
		t.Fatalf("unknown item: %v", err)
	}
}

func TestDynamicDemotion(t *testing.T) {
	clock := sim.NewClock()
	s := newService(clock)
	s.Register("cold", 4<<20, SSD)
	s.Register("hot", 4<<20, SSD)

	clock.Advance(2 * time.Hour)
	s.Touch("hot") // refresh recency

	clock.Advance(30 * time.Minute) // cold idle 2.5h, hot idle 0.5h
	migs := s.RunOnce()
	if len(migs) != 1 || migs[0].ID != "cold" || migs[0].From != SSD || migs[0].To != HDD || migs[0].Size != 4<<20 {
		t.Fatalf("migrations: %+v", migs)
	}
	if tier, _ := s.TierOf("cold"); tier != HDD {
		t.Fatalf("cold item on %v after its demotion", tier)
	}
	if tier, _ := s.TierOf("hot"); tier != SSD {
		t.Fatal("hot item demoted")
	}
	if st := s.Stats(); st.MigratedBytes != 4<<20 || st.Evictions != 1 {
		t.Fatalf("stats after one demotion: %+v", st)
	}
}

func TestArchiveAfterLongIdle(t *testing.T) {
	clock := sim.NewClock()
	s := newService(clock)
	s.Register("ancient", 1<<20, SSD)
	clock.Advance(2 * time.Hour)
	s.RunOnce() // -> HDD
	clock.Advance(25 * time.Hour)
	migs := s.RunOnce() // -> Archive
	if len(migs) != 1 || migs[0].To != Archive {
		t.Fatalf("migrations: %+v", migs)
	}
	st := s.Stats()
	if st.BytesPerTier[Archive] != 1<<20 || st.Evictions != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestPinnedNeverMigrates(t *testing.T) {
	clock := sim.NewClock()
	s := newService(clock)
	s.Register("crucial-topic", 1<<20, SSD)
	if err := s.Pin("crucial-topic"); err != nil {
		t.Fatal(err)
	}
	clock.Advance(100 * time.Hour)
	if migs := s.RunOnce(); len(migs) != 0 {
		t.Fatalf("pinned item migrated: %+v", migs)
	}
}

func TestStaticPromoteDemote(t *testing.T) {
	s := newService(sim.NewClock())
	s.Register("x", 1<<20, SSD)
	if err := s.Demote("x", Archive); err != nil {
		t.Fatal(err)
	}
	if tier, _ := s.TierOf("x"); tier != Archive {
		t.Fatal("demote failed")
	}
	if err := s.Promote("x"); err != nil {
		t.Fatal(err)
	}
	if tier, _ := s.TierOf("x"); tier != SSD {
		t.Fatal("promote failed")
	}
	if err := s.Promote("nope"); err != ErrUnknownItem {
		t.Fatalf("promote unknown: %v", err)
	}
}

func TestTierCostOrdering(t *testing.T) {
	if !(SSD.CostPerGBMonth() > HDD.CostPerGBMonth() && HDD.CostPerGBMonth() > Archive.CostPerGBMonth()) {
		t.Fatal("tier cost model ordering broken")
	}
}

func TestStatsMonthlyCostDropsAfterTiering(t *testing.T) {
	clock := sim.NewClock()
	s := newService(clock)
	s.Register("big", 10<<30, SSD)
	before := s.Stats().MonthlyCost
	clock.Advance(2 * time.Hour)
	s.RunOnce()
	after := s.Stats().MonthlyCost
	if after >= before {
		t.Fatalf("tiering did not reduce cost: %v -> %v", before, after)
	}
}

func TestReplicator(t *testing.T) {
	clock := sim.NewClock()
	s := newService(clock)
	s.Register("a", 1<<20, SSD)
	s.Register("b", 2<<20, HDD)
	r := NewReplicator()
	n, cost := r.Replicate(s)
	if n != 3<<20 || cost <= 0 {
		t.Fatalf("replicate: %d bytes, %v", n, cost)
	}
	r.Replicate(s)
	if got := r.ReplicatedBytes(); got != 6<<20 {
		t.Fatalf("cumulative replicated: %d", got)
	}
}

func TestMigrateToUnknownTierFailsWithoutMutation(t *testing.T) {
	s := newService(sim.NewClock())
	s.Register("item", 1<<20, SSD)
	// Used to set it.Tier before validating — stranding the item on a
	// tier nothing serves.
	if err := s.Demote("item", Tier(42)); err == nil {
		t.Fatal("Demote to unknown tier succeeded")
	}
	if tier, _ := s.TierOf("item"); tier != SSD {
		t.Fatalf("failed migrate moved the item to %v", tier)
	}
	if st := s.Stats(); st.MigratedBytes != 0 {
		t.Fatalf("failed migrate registered %d migrated bytes", st.MigratedBytes)
	}
}

func TestSameTierDemoteIsStrictNoOp(t *testing.T) {
	clock := sim.NewClock()
	s := newService(clock)
	s.Register("item", 1<<20, HDD)
	before := s.Stats()
	if err := s.Demote("item", HDD); err != nil {
		t.Fatalf("same-tier demote: %v", err)
	}
	after := s.Stats()
	if after.MigratedBytes != before.MigratedBytes {
		t.Fatalf("same-tier demote registered bytes: %d -> %d", before.MigratedBytes, after.MigratedBytes)
	}
	if after.BytesPerTier[HDD] != before.BytesPerTier[HDD] {
		t.Fatalf("same-tier demote changed occupancy: %v -> %v", before.BytesPerTier, after.BytesPerTier)
	}
	if tier, _ := s.TierOf("item"); tier != HDD {
		t.Fatalf("item moved to %v", tier)
	}
}
