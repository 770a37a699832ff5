package faults

import (
	"errors"
	"sync"
	"testing"
	"time"

	"streamlake/internal/bus"
)

func TestNetPlaneDropRateIsSeeded(t *testing.T) {
	run := func() (drops int) {
		np := NewNetPlane(42)
		np.SetDropRate("client", "worker/0", 0.3)
		for i := 0; i < 1000; i++ {
			if _, err := np.Deliver("client", "worker/0", 512); err != nil {
				drops++
			}
		}
		return drops
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed diverged: %d vs %d drops", a, b)
	}
	if a < 200 || a > 400 {
		t.Fatalf("drop rate 0.3 produced %d/1000 drops", a)
	}
	if st := NewNetPlane(42); func() bool { d, err := st.Deliver("client", "worker/0", 512); return d != 0 || err != nil }() {
		t.Fatal("plane with no rules intervened")
	}
}

func TestNetPlaneWildcardPrecedence(t *testing.T) {
	np := NewNetPlane(1)
	np.SetDropRate("*", "*", 1)
	np.SetDropRate("client", "*", 0) // deleting a rule falls through to (*, *)
	if _, err := np.Deliver("client", "worker/0", 1); !errors.Is(err, ErrMsgDropped) {
		t.Fatalf("(*,*) rule not applied: %v", err)
	}
	// A (*, to) rule applies to any sender, and healing it falls back to
	// the (*, *) rule underneath.
	np2 := NewNetPlane(1)
	np2.SetDropRate("*", "*", 1)
	np2.Partition("*", "worker/1")
	if _, err := np2.Deliver("gateway", "worker/1", 1); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("(*,to) partition not applied: %v", err)
	}
	np2.Heal("*", "worker/1")
	if _, err := np2.Deliver("gateway", "worker/1", 1); !errors.Is(err, ErrMsgDropped) {
		t.Fatalf("heal should fall back to the (*,*) drop rule: %v", err)
	}
}

func TestNetPlaneDelayAndJitter(t *testing.T) {
	np := NewNetPlane(7)
	np.SetDelay("client", "*", 2*time.Millisecond, time.Millisecond)
	for i := 0; i < 100; i++ {
		d, err := np.Deliver("client", "worker/0", 64)
		if err != nil {
			t.Fatalf("delay rule dropped a message: %v", err)
		}
		if d < 2*time.Millisecond || d >= 3*time.Millisecond {
			t.Fatalf("delay %v outside [2ms, 3ms)", d)
		}
	}
	st := np.Stats()
	if st.Delayed != 100 || st.DelayInjected < 200*time.Millisecond {
		t.Fatalf("delay stats: %+v", st)
	}
}

func TestNetPlanePartitionAndHealAll(t *testing.T) {
	np := NewNetPlane(3)
	np.Partition("client", "worker/0")
	np.Partition("worker/0", "client")
	if _, err := np.Deliver("client", "worker/0", 1); !errors.Is(err, ErrPartitioned) {
		t.Fatal("forward direction not blocked")
	}
	if _, err := np.Deliver("worker/0", "client", 1); !errors.Is(err, ErrPartitioned) {
		t.Fatal("reverse direction not blocked")
	}
	if _, err := np.Deliver("client", "worker/1", 1); err != nil {
		t.Fatalf("unrelated link blocked: %v", err)
	}
	np.HealAll()
	if _, err := np.Deliver("client", "worker/0", 1); err != nil {
		t.Fatalf("heal-all did not heal: %v", err)
	}
	if st := np.Stats(); st.Blocked != 2 {
		t.Fatalf("blocked count: %+v", st)
	}
}

func TestInjectorClearClearsNetPlane(t *testing.T) {
	in := New(99)
	np := in.Net()
	np.SetDropRate("*", "*", 1)
	np.Partition("client", "worker/0")
	np.SetDelay("client", "*", time.Millisecond, 0)
	if len(np.Rules()) != 3 {
		t.Fatalf("rules: %v", np.Rules())
	}
	in.Clear()
	if len(np.Rules()) != 0 {
		t.Fatalf("injector Clear left net rules standing: %v", np.Rules())
	}
	if _, err := np.Deliver("client", "worker/0", 1); err != nil {
		t.Fatalf("cleared plane still failing: %v", err)
	}
}

// TestNetPlaneConcurrency is the satellite -race churn test, mirroring
// TestInjectorConcurrency: sender goroutines drive bus traffic through
// the plane while control-plane goroutines churn drop rates, delays,
// partitions, heals, and full clears. It asserts freedom from data
// races and deadlocks, not a particular fault schedule.
func TestNetPlaneConcurrency(t *testing.T) {
	in := New(1234)
	np := in.Net()
	b := bus.New(bus.Config{Path: bus.RDMA, Aggregation: true})
	b.SetNet(np, "client")

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Sender goroutines: in-flight traffic on several links.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			links := [2]string{"worker/0", "worker/1"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				b.SendLinkT("client", links[i%2], 512, bus.Normal, "")
				b.Send(512, bus.Normal)
			}
		}(g)
	}
	// Control-plane churn: rates and delays flip continuously.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			np.SetDropRate("client", "worker/0", float64(i%2)*0.5)
			np.SetDelay("*", "worker/1", time.Duration(i%3)*time.Millisecond, time.Millisecond)
			np.Stats()
			np.Rules()
		}
	}()
	// Partition/heal churn plus injector-wide clears.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			np.Partition("client", "worker/1")
			np.Heal("client", "worker/1")
			if i%7 == 0 {
				in.Clear()
			}
			if i%11 == 0 {
				np.HealAll()
			}
		}
	}()

	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	// The plane must still be functional after the churn.
	in.Clear()
	if _, err := np.Deliver("client", "worker/0", 1); err != nil {
		t.Fatalf("plane broken after churn: %v", err)
	}
}

// TestDeliverWithoutRulesTakesNoLock: with no drop, delay or partition
// rule standing, Deliver answers from one atomic load — it must return
// while the test holds np.mu — and the count it loads follows every
// mutator back to zero: the last Heal, HealAll, Clear, and a rate or
// delay set to nothing.
func TestDeliverWithoutRulesTakesNoLock(t *testing.T) {
	np := NewNetPlane(7)
	ruleFree := func(when string) {
		t.Helper()
		if n := np.rules.Load(); n != 0 {
			t.Fatalf("%s: %d rules counted, want 0", when, n)
		}
		np.mu.Lock()
		defer np.mu.Unlock()
		done := make(chan error, 1)
		go func() {
			_, err := np.Deliver("client", "worker/0", 64)
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: rule-free Deliver failed: %v", when, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: Deliver waits for np.mu with no rule standing", when)
		}
	}
	ruleFree("fresh plane")

	np.Partition("client", "worker/0")
	np.Partition("client", "worker/1")
	np.Partition("client", "worker/1") // the same rule twice is one rule
	if n := np.rules.Load(); n != 2 {
		t.Fatalf("%d rules counted after two partitions, want 2", n)
	}
	if _, err := np.Deliver("client", "worker/0", 64); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("partitioned link delivered: %v", err)
	}
	np.Heal("client", "worker/0")
	if _, err := np.Deliver("client", "worker/0", 64); err != nil {
		t.Fatalf("healed link with another rule standing: %v", err)
	}
	np.Heal("client", "worker/1")
	ruleFree("after the last Heal")

	np.SetDropRate("*", "*", 1)
	np.SetDelay("client", "*", time.Millisecond, 0)
	np.Partition("a", "b")
	if n := np.rules.Load(); n != 3 {
		t.Fatalf("%d rules counted, want 3", n)
	}
	np.HealAll()
	if n := np.rules.Load(); n != 2 {
		t.Fatalf("%d rules counted after HealAll, want the drop and the delay", n)
	}
	if d, err := np.Deliver("client", "worker/0", 64); !errors.Is(err, ErrMsgDropped) || d != time.Millisecond {
		t.Fatalf("drop and delay rules must survive HealAll: %v, %v", d, err)
	}
	np.SetDropRate("*", "*", 0)
	np.SetDelay("client", "*", 0, 0)
	ruleFree("after zeroing the rate and the delay")

	np.SetDropRate("x", "y", 0.5)
	np.SetDelay("x", "y", 0, time.Millisecond)
	np.Partition("x", "y")
	np.Clear()
	ruleFree("after Clear")
	if s := np.Stats(); s.Blocked != 1 || s.Drops != 1 || s.Delayed != 1 {
		t.Fatalf("rule-free deliveries must not count: %+v", s)
	}
}
