package tiering

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"streamlake/internal/plog"
	"streamlake/internal/pool"
	"streamlake/internal/sim"
)

// tiers is a service over a real manager on an SSD pool and an HDD pool.
type tiers struct {
	clock *sim.Clock
	logs  *plog.Manager
	hdd   *pool.Pool
	svc   *Service
}

func newTiers() *tiers {
	clock := sim.NewClock()
	logs := plog.NewManager(pool.New("ssd", clock, sim.NVMeSSD, 6, 0), 1<<20)
	hdd := pool.New("hdd", clock, sim.SASHDD, 6, 0)
	return &tiers{clock: clock, logs: logs, hdd: hdd, svc: NewService(clock, logs, hdd)}
}

// log creates a log holding size bytes, sealed when sealed is set.
func (e *tiers) log(t *testing.T, size int, sealed bool) *plog.PLog {
	t.Helper()
	l, err := e.logs.Create(plog.ReplicateN(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append(bytes.Repeat([]byte("cold "), size/5)); err != nil {
		t.Fatal(err)
	}
	if sealed {
		l.Seal()
	}
	return l
}

func TestDynamicDemotion(t *testing.T) {
	e := newTiers()
	cold := e.log(t, 4<<10, true)
	open := e.log(t, 4<<10, false)
	e.svc.RunOnce(nil) // starts cold's idle clock

	e.clock.Advance(2 * time.Hour)
	hot := e.log(t, 4<<10, true)
	migs, cost := e.svc.RunOnce(nil) // cold idle 2h, hot just seen
	if want := []Migration{{ID: cold.ID(), Size: cold.Size()}}; !reflect.DeepEqual(migs, want) || cost <= 0 {
		t.Fatalf("migrations %+v costing %v, want %+v", migs, cost, want)
	}
	e.clock.Advance(30 * time.Minute)
	if migs, _ := e.svc.RunOnce(nil); len(migs) != 0 {
		t.Fatalf("hot log idle 30 min moved: %+v", migs)
	}
	for _, info := range e.logs.Logs() {
		want := e.logs.Pool()
		if info.ID == cold.ID() {
			want = e.hdd
		}
		if info.Pool != want {
			t.Fatalf("log %d on %s, want %s (cold %d, open %d, hot %d)",
				info.ID, info.Pool.Name(), want.Name(), cold.ID(), open.ID(), hot.ID())
		}
	}
	if st := e.svc.Stats(); st.MigratedBytes != cold.Size() || st.Evictions != 1 {
		t.Fatalf("stats after one demotion: %+v", st)
	}
}

// Stats reads occupancy from what holds the bytes: each pool's logs,
// the archiver's count, and nothing for a log once it is destroyed.
func TestStatsReadPlacement(t *testing.T) {
	e := newTiers()
	moved := e.log(t, 4<<10, true)
	kept := e.log(t, 2<<10, false)
	e.svc.RunOnce(nil)
	e.clock.Advance(2 * time.Hour)
	e.svc.RunOnce(nil)
	e.svc.AddArchived(300)
	want := map[Tier]int64{SSD: kept.Size(), HDD: moved.Size(), Archive: 300}
	if got := e.svc.Stats().BytesPerTier; !reflect.DeepEqual(got, want) {
		t.Fatalf("tiers %v, want %v", got, want)
	}
	if err := e.logs.Destroy(moved.ID()); err != nil {
		t.Fatal(err)
	}
	e.clock.Advance(30 * time.Hour)
	e.svc.RunOnce(nil)
	delete(want, HDD)
	if got := e.svc.Stats().BytesPerTier; !reflect.DeepEqual(got, want) {
		t.Fatalf("tiers after the moved log was destroyed %v, want %v", got, want)
	}
}

func TestTierCostOrdering(t *testing.T) {
	if !(SSD.CostPerGBMonth() > HDD.CostPerGBMonth() && HDD.CostPerGBMonth() > Archive.CostPerGBMonth()) {
		t.Fatal("tier cost model ordering broken")
	}
}

func TestStatsMonthlyCostDropsAfterTiering(t *testing.T) {
	e := newTiers()
	e.log(t, 64<<10, true)
	e.svc.RunOnce(nil)
	before := e.svc.Stats().MonthlyCost
	e.clock.Advance(2 * time.Hour)
	e.svc.RunOnce(nil)
	after := e.svc.Stats().MonthlyCost
	if after >= before {
		t.Fatalf("tiering did not reduce cost: %v -> %v", before, after)
	}
}
