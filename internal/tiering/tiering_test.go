package tiering

import (
	"testing"
	"time"

	"streamlake/internal/sim"
)

func TestRegisterAndTierOf(t *testing.T) {
	s := NewService(sim.NewClock())
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
	s := NewService(clock)
	s.Register("cold", 4<<20, SSD)

	clock.Advance(2 * time.Hour)
	s.Register("hot", 4<<20, SSD)

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
	s := NewService(clock)
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

func TestTierCostOrdering(t *testing.T) {
	if !(SSD.CostPerGBMonth() > HDD.CostPerGBMonth() && HDD.CostPerGBMonth() > Archive.CostPerGBMonth()) {
		t.Fatal("tier cost model ordering broken")
	}
}

func TestStatsMonthlyCostDropsAfterTiering(t *testing.T) {
	clock := sim.NewClock()
	s := NewService(clock)
	s.Register("big", 10<<30, SSD)
	before := s.Stats().MonthlyCost
	clock.Advance(2 * time.Hour)
	s.RunOnce()
	after := s.Stats().MonthlyCost
	if after >= before {
		t.Fatalf("tiering did not reduce cost: %v -> %v", before, after)
	}
}
