package streamsvc

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"streamlake/internal/obs"
	"streamlake/internal/sim"
)

// TestObsSnapshotRace is the torn-read regression test for the obs
// wiring: producers, consumers, worker rescales, per-worker Appended()
// reads, registry snapshots and Prometheus renders all race. Under
// -race this fails on any metric bumped outside its owning lock or any
// snapshot path reading shared state unlocked (the GaugeFuncs call back
// into Service/Worker accessors while traffic is live). The bus totals
// must survive the rescales that retire every worker's bus: no snapshot
// sees one go down, and the sends total ends with every message's
// forward transfer and ack in it.
func TestObsSnapshotRace(t *testing.T) {
	s := newService(t, 3)
	reg := obs.NewRegistry(sim.NewClock())
	s.SetObs(reg)
	for i := 0; i < 2; i++ {
		if err := s.CreateTopic(TopicConfig{Name: fmt.Sprintf("t%d", i), StreamNum: 2}); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 40
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := s.Producer("racer")
		for i := 0; i < rounds; i++ {
			for topic := 0; topic < 2; topic++ {
				p.Send(fmt.Sprintf("t%d", topic), []byte("k"), []byte("v"))
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := s.Consumer("g")
		if err := c.Subscribe("t0"); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < rounds; i++ {
			if _, _, err := c.Poll(16); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Topology churn: rescaling re-wires new workers' buses onto the
	// shared registry mid-traffic.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds/4; i++ {
			s.SetWorkerCount(2 + i%3)
		}
	}()
	// Observers: registry snapshots and Prometheus renders, while the
	// writers above are live.
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := map[string]int64{}
		for i := 0; i < rounds; i++ {
			snap := reg.Snapshot()
			if snap.Counters["streamsvc_produced_messages_total"] < 0 {
				t.Error("negative counter")
				return
			}
			for name, v := range snap.Counters {
				if strings.HasPrefix(name, "bus_") && v < last[name] {
					t.Errorf("%s went down from %d to %d", name, last[name], v)
					return
				}
				last[name] = v
			}
			if err := reg.WriteProm(io.Discard); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	// Post-race consistency: the registry counter saw every send.
	snap := reg.Snapshot()
	produced := snap.Counters["streamsvc_produced_messages_total"]
	if produced != 2*rounds {
		t.Fatalf("produced counter = %d, want %d", produced, 2*rounds)
	}
	if sends := snap.Counters[`bus_sends_total{path="rdma"}`]; sends < 2*produced {
		t.Fatalf("bus sends = %d, want at least %d: a forward transfer and an ack per message", sends, 2*produced)
	}
}
