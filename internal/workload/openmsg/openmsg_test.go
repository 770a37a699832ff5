package openmsg

import (
	"testing"

	"streamlake/internal/plog"
	"streamlake/internal/pool"
	"streamlake/internal/sim"
	"streamlake/internal/streamobj"
	"streamlake/internal/streamsvc"
)

func newSvc(t testing.TB, scm bool) *streamsvc.Service {
	t.Helper()
	clock := sim.NewClock()
	p := pool.New("om", clock, sim.NVMeSSD, 6, 8<<20)
	store := streamobj.NewStore(clock, plog.NewManager(p, 2<<20))
	svc := streamsvc.New(clock, store, 3)
	if err := svc.CreateTopic(streamsvc.TopicConfig{Name: "bench", StreamNum: 4, SCMCache: scm}); err != nil {
		t.Fatal(err)
	}
	return svc
}

func TestRunBasics(t *testing.T) {
	svc := newSvc(t, false)
	res, err := Run(svc, Config{Topic: "bench", RatePerSec: 50_000, SampleMessages: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 2000 || res.Mean <= 0 {
		t.Fatalf("result: %+v", res)
	}
	if res.Throughput != 50_000 || res.Saturated {
		t.Fatalf("under-capacity point saturated: %+v", res)
	}
}

func TestSCMReducesLatencyAtLowRate(t *testing.T) {
	// Figure 14(a): persistent memory reduces latency, especially at
	// 200k msg/s or less.
	set1, err := Run(newSvc(t, false), Config{Topic: "bench", RatePerSec: 100_000, SampleMessages: 2000})
	if err != nil {
		t.Fatal(err)
	}
	set2, err := Run(newSvc(t, true), Config{Topic: "bench", RatePerSec: 100_000, SampleMessages: 2000, SCM: true})
	if err != nil {
		t.Fatal(err)
	}
	if set2.Mean >= set1.Mean {
		t.Fatalf("SCM mean %v >= SSD mean %v", set2.Mean, set1.Mean)
	}
}

func TestThroughputLinearThenSaturates(t *testing.T) {
	// Figure 14(b): throughput tracks the offered rate linearly through
	// 1.5M msg/s.
	rates := []float64{50_000, 500_000, 1_000_000, 1_500_000}
	var prev float64
	for _, r := range rates {
		res, err := Run(newSvc(t, false), Config{Topic: "bench", RatePerSec: r, SampleMessages: 1000})
		if err != nil {
			t.Fatal(err)
		}
		if res.Throughput <= prev {
			t.Fatalf("throughput not increasing at %v: %+v", r, res)
		}
		if res.Saturated {
			t.Fatalf("saturated below capacity at %v msg/s", r)
		}
		prev = res.Throughput
	}
	// Far beyond device bandwidth: throughput caps.
	res, err := Run(newSvc(t, false), Config{Topic: "bench", RatePerSec: 10_000_000, SampleMessages: 500})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated || res.Throughput >= res.OfferedRate {
		t.Fatalf("over-capacity point: %+v", res)
	}
}

func TestLatencyRisesWithRate(t *testing.T) {
	lo, err := Run(newSvc(t, false), Config{Topic: "bench", RatePerSec: 50_000, SampleMessages: 1000})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := Run(newSvc(t, false), Config{Topic: "bench", RatePerSec: 1_500_000, SampleMessages: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if hi.Mean <= lo.Mean {
		t.Fatalf("latency flat under load: %v at 50k vs %v at 1.5M", lo.Mean, hi.Mean)
	}
}

func TestRunErrors(t *testing.T) {
	svc := newSvc(t, false)
	if _, err := Run(svc, Config{Topic: "ghost", RatePerSec: 1000, SampleMessages: 10}); err == nil {
		t.Fatal("unknown topic accepted")
	}
}
