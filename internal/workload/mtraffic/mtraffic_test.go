package mtraffic

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"streamlake"
)

func newLake(t *testing.T, tenants ...streamlake.TenantConfig) *streamlake.Lake {
	t.Helper()
	lake, err := streamlake.Open(streamlake.Config{Seed: 11, Tenants: tenants})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := lake.CreateTopic(streamlake.TopicConfig{Name: "mt", StreamNum: 4}); err != nil {
		t.Fatalf("topic: %v", err)
	}
	return lake
}

func TestRunIsDeterministic(t *testing.T) {
	cfg := Config{
		Topic: "mt",
		Seed:  42,
		Tenants: []TenantSpec{
			{Name: "a", MeanGap: 200 * time.Microsecond, DiurnalAmp: 0.8},
			{Name: "b", MeanGap: time.Millisecond, ValueBytes: 64},
		},
	}
	run := func() Result {
		lake := newLake(t,
			streamlake.TenantConfig{Name: "a"},
			streamlake.TenantConfig{Name: "b"},
		)
		res, err := Run(lake, cfg)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return res
	}
	first, second := run(), run()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", first, second)
	}
	if first.Elapsed <= 0 {
		t.Fatal("schedule consumed no virtual time")
	}
	var offered int64
	for _, tr := range first.Tenants {
		offered += tr.Offered
		if tr.Offered != tr.Acked+tr.Throttled+tr.Shed+tr.Failed {
			t.Fatalf("tenant %s outcomes do not partition offered: %+v", tr.Name, tr)
		}
	}
	if offered != int64(first.Events) {
		t.Fatalf("offered %d != events %d", offered, first.Events)
	}
}

func TestQuotaOutcomesClassified(t *testing.T) {
	// "hog" offers ~13 MB/s against a 64 KB/s bandwidth quota, so most
	// of its open-loop arrivals must classify as Throttled; "free" has
	// no quotas and must ack everything.
	lake := newLake(t,
		streamlake.TenantConfig{Name: "hog", BandwidthBps: 64 << 10},
		streamlake.TenantConfig{Name: "free"},
	)
	res, err := Run(lake, Config{
		Topic: "mt",
		Seed:  7,
		Tenants: []TenantSpec{
			{Name: "hog", MeanGap: 300 * time.Microsecond, ValueBytes: 4096},
			{Name: "free", MeanGap: time.Millisecond, ValueBytes: 256},
		},
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	hog, _ := res.Tenant("hog")
	free, _ := res.Tenant("free")
	if hog.Throttled == 0 {
		t.Fatalf("over-quota tenant never throttled: %+v", hog)
	}
	if hog.Acked == 0 {
		t.Fatalf("throttled tenant should still land its in-quota share: %+v", hog)
	}
	if free.Throttled != 0 || free.Shed != 0 || free.Failed != 0 || free.Acked != free.Offered {
		t.Fatalf("unlimited tenant saw rejections: %+v", free)
	}
	if free.P99 < free.P50 || free.Max < free.P99 {
		t.Fatalf("quantiles out of order: %+v", free)
	}
}

func TestSkewedSpecsShapeOfferedLoad(t *testing.T) {
	// Tenant i offers a mean gap of 300µs·(i+1)^1.2: a Zipf curve whose
	// head dominates the aggregate.
	specs := make([]TenantSpec, 4)
	for i := range specs {
		specs[i] = TenantSpec{
			Name:    fmt.Sprintf("t%d", i),
			MeanGap: time.Duration(float64(300*time.Microsecond) * math.Pow(float64(i+1), 1.2)),
		}
	}
	lake := newLake(t,
		streamlake.TenantConfig{Name: "t0"},
		streamlake.TenantConfig{Name: "t1"},
		streamlake.TenantConfig{Name: "t2"},
		streamlake.TenantConfig{Name: "t3"},
	)
	res, err := Run(lake, Config{Topic: "mt", Seed: 3, Events: 1500, Tenants: specs})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	head, _ := res.Tenant("t0")
	tail, _ := res.Tenant("t3")
	if head.Offered <= 2*tail.Offered {
		t.Fatalf("zipf head %d not dominating tail %d", head.Offered, tail.Offered)
	}
}

func TestDiurnalBurstsModulateArrivals(t *testing.T) {
	// With a strong diurnal swing, the same mean gap must pack more
	// arrivals into the cycle's peak half than a flat schedule would —
	// observable as a different (shorter or longer) elapsed time for the
	// same event count and seed.
	run := func(amp float64) Result {
		lake := newLake(t, streamlake.TenantConfig{Name: "a"})
		res, err := Run(lake, Config{
			Topic:         "mt",
			Seed:          9,
			Events:        500,
			DiurnalPeriod: 50 * time.Millisecond,
			Tenants:       []TenantSpec{{Name: "a", MeanGap: 500 * time.Microsecond, DiurnalAmp: amp, ValueBytes: 64}},
		})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return res
	}
	flat, bursty := run(0), run(0.9)
	if flat.Elapsed == bursty.Elapsed {
		t.Fatal("diurnal modulation had no effect on the arrival schedule")
	}
}

// TestNoisyNeighborIsolation is the isolation gate: the same open-loop
// two-tenant schedule (a paced in-quota victim, and a tenant offering
// ~12.8 GB/s in 128 KiB values against a ~5.4 GB/s modelled link) runs
// three ways on seed 7 — the victim alone, both tenants with the QoS
// plane enforcing the noisy tenant's quota, and both on an unisolated
// control lake whose shared-queue contention model stands in for the
// QoS plane. Quotas must hold the victim's produce p99 within 2x its
// solo baseline while the control collapses past that bound.
//
// The noisy tenant takes ~98 % of the arrivals, so the isolated victim's
// "p99" is the maximum of a few dozen acks: the test logs both sample
// counts and fails if a schedule change thins the victim's below 40.
func TestNoisyNeighborIsolation(t *testing.T) {
	const events = 2000
	victim := TenantSpec{Name: "victim", Producers: 64, ValueBytes: 512, MeanGap: 400 * time.Microsecond}
	noisy := TenantSpec{Name: "noisy", Producers: 2000, ValueBytes: 128 << 10, MeanGap: 10 * time.Microsecond, DiurnalAmp: 0.5}
	victimCfg := streamlake.TenantConfig{Name: "victim", Weight: 4}
	noisyCfg := streamlake.TenantConfig{Name: "noisy", Weight: 1, Priority: 1, BandwidthBps: 2 << 20}

	run := func(tenants []streamlake.TenantConfig, control bool, ev int, specs ...TenantSpec) Result {
		lake, err := streamlake.Open(streamlake.Config{Seed: 7, Tenants: tenants})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if control {
			lake.Service().SetContention()
		}
		if err := lake.CreateTopic(streamlake.TopicConfig{Name: "mt", StreamNum: 4}); err != nil {
			t.Fatalf("topic: %v", err)
		}
		res, err := Run(lake, Config{Topic: "mt", Seed: 7, Events: ev, Tenants: specs})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return res
	}
	solo := run([]streamlake.TenantConfig{victimCfg}, false, events/8, victim)
	iso := run([]streamlake.TenantConfig{victimCfg, noisyCfg}, false, events, victim, noisy)
	// A quarter of the schedule is enough to show the collapse (47x solo),
	// and the control's 128 KiB sends are what the race pass pays for.
	ctl := run(nil, true, events/4, victim, noisy)

	soloV, _ := solo.Tenant("victim")
	isoV, _ := iso.Tenant("victim")
	isoN, _ := iso.Tenant("noisy")
	ctlV, _ := ctl.Tenant("victim")
	t.Logf("victim p99 solo=%v (%d acks) isolated=%v (%d acks) control=%v (%d acks); noisy throttled %d of %d",
		soloV.P99, soloV.Acked, isoV.P99, isoV.Acked, ctlV.P99, ctlV.Acked, isoN.Throttled, isoN.Offered)

	if soloV.Acked == 0 || soloV.Acked != soloV.Offered || soloV.P99 <= 0 {
		t.Fatalf("degenerate solo baseline: %+v", soloV)
	}
	if isoV.Acked != isoV.Offered {
		t.Fatalf("in-quota victim denied %d of %d sends", isoV.Offered-isoV.Acked, isoV.Offered)
	}
	if isoV.Acked < 40 {
		t.Fatalf("isolated victim acked %d sends: too few for its p99 to mean anything (want ≥40)", isoV.Acked)
	}
	if isoN.Throttled == 0 {
		t.Fatalf("noisy tenant never hit its quota: %+v", isoN)
	}
	if isoV.P99 > 2*soloV.P99 {
		t.Fatalf("victim p99 %v under isolation, ceiling 2x solo %v", isoV.P99, soloV.P99)
	}
	if ctlV.P99 <= 2*soloV.P99 {
		t.Fatalf("control held victim p99 at %v (solo %v): the contention model shows no collapse to isolate against", ctlV.P99, soloV.P99)
	}
}
