package tenant

import (
	"testing"
	"time"

	"streamlake/internal/sim"
)

const testBW = 1 << 20 // 1 MiB/s link for easy arithmetic

func TestWFQHeavyFlowPaysLightFlowDoesNot(t *testing.T) {
	clock := sim.NewClock()
	r := mustRegistry(t, Config{Name: "heavy", Weight: 1}, Config{Name: "light", Weight: 1})
	s := NewSched(clock, r, testBW)

	// heavy offers 2x its fair share (512 KiB/s): 64 KiB every 62.5ms.
	// light offers well under its share: 1 KiB every 100ms.
	var heavyMax, lightMax time.Duration
	for i := 0; i < 40; i++ {
		clock.Advance(62500 * time.Microsecond)
		if d := s.Delay("heavy", 1, 64<<10); d > heavyMax {
			heavyMax = d
		}
		if i%2 == 1 {
			if d := s.Delay("light", 1, 1<<10); d > lightMax {
				lightMax = d
			}
		}
	}
	// heavy's backlog grows ~32 KiB per send against a 512 KiB/s rate:
	// after 40 sends its delay is seconds; light never queues behind it.
	if heavyMax < 500*time.Millisecond {
		t.Fatalf("heavy flow not self-penalized: max delay %v", heavyMax)
	}
	if lightMax > 5*time.Millisecond {
		t.Fatalf("light flow inherited heavy backlog: max delay %v", lightMax)
	}
	if hs, _ := r.StatsOf("heavy"); hs.WFQDelay == 0 {
		t.Fatal("WFQDelay not accounted")
	}
}

func TestWFQSharesFollowWeights(t *testing.T) {
	clock := sim.NewClock()
	r := mustRegistry(t, Config{Name: "big", Weight: 3}, Config{Name: "small", Weight: 1})
	s := NewSched(clock, r, testBW)

	// Both offer the same load; small's rate is 1/4 of the link, big's
	// 3/4, so small's queuing delay must be ~3x big's.
	var bigD, smallD time.Duration
	for i := 0; i < 20; i++ {
		clock.Advance(10 * time.Millisecond)
		bigD = s.Delay("big", 1, 32<<10)
		smallD = s.Delay("small", 1, 32<<10)
	}
	if smallD < 2*bigD {
		t.Fatalf("weights not honored: big %v small %v", bigD, smallD)
	}
}

func TestUnisolatedSharedBacklogCollapses(t *testing.T) {
	clock := sim.NewClock()
	s := NewSched(clock, nil, testBW) // control model: one shared queue

	var lightMax time.Duration
	for i := 0; i < 40; i++ {
		clock.Advance(62500 * time.Microsecond)
		s.Delay("heavy", 1, 128<<10) // 2 MiB/s offered on a 1 MiB/s link
		if d := s.Delay("light", 1, 1<<10); d > lightMax {
			lightMax = d
		}
	}
	// Without isolation the light sender queues behind heavy's backlog.
	if lightMax < 500*time.Millisecond {
		t.Fatalf("control model shows no interference: light max %v", lightMax)
	}
}

func TestSchedSystemIdentityAndUnknownExempt(t *testing.T) {
	clock := sim.NewClock()
	r := mustRegistry(t, Config{Name: "a"})
	s := NewSched(clock, r, testBW)
	if d := s.Delay("", 1, 1<<30); d != 0 {
		t.Fatalf("system identity delayed %v", d)
	}
	if d := s.Delay("ghost", 1, 1<<30); d != 0 {
		t.Fatalf("unknown tenant delayed %v", d)
	}
	var nilSched *Sched
	if d := nilSched.Delay("a", 1, 1<<20); d != 0 {
		t.Fatalf("nil sched delayed %v", d)
	}
	if d := s.Delay("a", 99, 1<<10); d < 0 { // class clamps, no panic
		t.Fatalf("clamped class misbehaved: %v", d)
	}
}

func TestSchedClassesAreIndependent(t *testing.T) {
	clock := sim.NewClock()
	r := mustRegistry(t, Config{Name: "a"})
	s := NewSched(clock, r, testBW)
	// Saturate class 2; class 0 must stay empty for the same tenant.
	for i := 0; i < 10; i++ {
		s.Delay("a", 2, 1<<20)
	}
	s.mu.Lock()
	backlog := s.classes[2].flows["a"].backlog
	s.mu.Unlock()
	if backlog == 0 {
		t.Fatal("class 2 backlog missing")
	}
	if d := s.Delay("a", 0, 1<<10); d > 2*time.Millisecond {
		t.Fatalf("class 0 inherited class 2 backlog: %v", d)
	}
}

func TestSchedDeterministic(t *testing.T) {
	run := func() []time.Duration {
		clock := sim.NewClock()
		r := mustRegistry(t, Config{Name: "x", Weight: 2}, Config{Name: "y", Weight: 1})
		s := NewSched(clock, r, testBW)
		var out []time.Duration
		for i := 0; i < 30; i++ {
			clock.Advance(time.Duration(1+i%7) * time.Millisecond)
			out = append(out, s.Delay("x", 1, int64(4<<10+i*17)))
			out = append(out, s.Delay("y", 1, int64(2<<10+i*11)))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delay %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}
