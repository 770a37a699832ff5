package query

import (
	"sync"
	"testing"

	"streamlake/internal/obs"
	"streamlake/internal/sim"
)

// SetObs used to write the engine's counter fields without any
// synchronization, so wiring observability after the engine started
// serving raced with ExecuteSpan's counter reads. The instrument set now
// swaps atomically; this must stay clean under -race.
func TestSetObsConcurrentWithQueries(t *testing.T) {
	e, lh := newEngine(t)
	loadRows(t, lh, 100)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 25; i++ {
				if _, err := e.Query("select count(*) from logs"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 25; i++ {
			e.SetObs(obs.NewRegistry(sim.NewClock()))
		}
	}()
	close(start)
	wg.Wait()
}

// A query engine with no registry wired must count nothing and crash
// nowhere; one wired mid-stream starts counting from the swap.
func TestSetObsMidStreamCounts(t *testing.T) {
	e, lh := newEngine(t)
	loadRows(t, lh, 50)
	if _, err := e.Query("select count(*) from logs"); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry(sim.NewClock())
	e.SetObs(reg)
	if _, err := e.Query("select count(*) from logs"); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["query_queries_total"]; got != 1 {
		t.Fatalf("queries counted after wiring: %d, want 1", got)
	}
}
