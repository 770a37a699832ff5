package chaos

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestChaosInvariantsHold sweeps the one schedule — every actor on —
// over many seeds. No seed may break an invariant: nothing acked is
// lost or appended twice, offsets stay monotonic, scans see exactly the
// acked rows, cached reads match the devices, every ack is in the
// replicated metadata log, no term elects two leaders, every join stays
// inside its movement bound, the settle rebalance restores full
// redundancy, and the steady tenant is never denied. Every replayed
// seed gives the same digest, the seed set as a whole must exercise
// every actor, and a longer schedule commits more table rows.
func TestChaosInvariantsHold(t *testing.T) {
	seeds, events := uint64(100), 600
	if testing.Short() {
		seeds, events = 20, 300
	}
	var (
		mu          sync.Mutex
		first, long Report
		sum         = map[string]int64{}
		digests     = map[uint64]uint64{}
	)
	t.Run("seeds", func(t *testing.T) {
		// Inserts keep landing however long the faults go on: twice the
		// schedule commits more rows than seed 1's sweep run.
		t.Run("long", func(t *testing.T) {
			t.Parallel()
			rep, err := Run(Config{Seed: 1, Events: 2 * events})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range rep.Violations {
				t.Errorf("invariant violated: %s", v)
			}
			mu.Lock()
			long = rep
			mu.Unlock()
		})
		for seed := uint64(1); seed <= seeds; seed++ {
			t.Run(fmt.Sprint(seed), func(t *testing.T) {
				t.Parallel()
				cfg := Config{Seed: seed, Events: events}
				var rep Report
				var err error
				if seed%10 == 1 {
					var same bool
					rep, same, err = RunWithReplay(cfg)
					if err == nil && !same {
						t.Errorf("replay diverged (digest %x)", rep.Digest)
					}
				} else {
					rep, err = Run(cfg)
				}
				if err != nil {
					t.Fatal(err)
				}
				if seed <= 3 {
					checkDigest(t, fmt.Sprintf("all-%d-%d", seed, events), rep)
				}
				for _, v := range rep.Violations {
					t.Errorf("invariant violated: %s", v)
				}
				c := rep.Counters
				if c["stream.drained"] < c["stream.produced"] {
					t.Errorf("drained %d of %d acked", c["stream.drained"], c["stream.produced"])
				}
				if c["tenants.steadyDenied"] != 0 {
					t.Errorf("protected tenant denied %d times", c["tenants.steadyDenied"])
				}
				if c["stream.produced"] == 0 || c["lakehouse.rows"] == 0 {
					t.Errorf("degenerate run: %v", rep.Actors)
				}
				mu.Lock()
				defer mu.Unlock()
				if prev, ok := digests[rep.Digest]; ok {
					t.Errorf("seeds %d and %d produced the same digest", prev, seed)
				}
				digests[rep.Digest] = seed
				if seed == 1 {
					first = rep
				}
				for k, n := range c {
					sum[k] += n
				}
			})
		}
	})
	// Every actor is live across the seed set.
	for _, k := range []string{
		"stream.retries", "stream.groupCommits", "net.drops", "partitions.cuts",
		"disks.kills", "corruption.flips", "lakehouse.coherence", "lakehouse.cacheHits", "lakehouse.coldLogs",
		"tenants.noisyAcked", "tenants.steadyAcked", "split-brain.splits",
		"failover.nodeKills", "failover.elections", "failover.metaCommits",
		"elastic.joins", "elastic.removes", "repair.rebalanced",
	} {
		if sum[k] == 0 {
			t.Errorf("%s is 0 across %d seeds", k, seeds)
		}
	}
	if sum["tenants.noisyLimited"]+sum["tenants.noisyShed"] == 0 {
		t.Errorf("the noisy tenant was never throttled or shed across %d seeds", seeds)
	}
	if sum["lakehouse.coldComp"] >= sum["lakehouse.coldRaw"] {
		t.Errorf("cold tier stored %d bytes for %d raw: compression bought nothing", sum["lakehouse.coldComp"], sum["lakehouse.coldRaw"])
	}
	if long.Counters["lakehouse.rows"] <= first.Counters["lakehouse.rows"] {
		t.Errorf("table rows at %d and %d events: %d, %d, want growth", events, 2*events,
			first.Counters["lakehouse.rows"], long.Counters["lakehouse.rows"])
	}
	t.Logf("%d seeds of %d events: %v", seeds, events, sum)
}

// runChecked runs cfg — twice when replay is set, and then both runs
// must give one digest — checks its "all-<seed>-<events>" digest row and
// fails on any violation, on an acked write the drain missed, on a
// denied steady-tenant write, and on a run that acked nothing.
func runChecked(t *testing.T, cfg Config, replay bool) Report {
	t.Helper()
	var rep Report
	var err error
	if replay {
		var same bool
		rep, same, err = RunWithReplay(cfg)
		if err == nil && !same {
			t.Errorf("seed %d: replay diverged (digest %x)", cfg.Seed, rep.Digest)
		}
	} else {
		rep, err = Run(cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, fmt.Sprintf("all-%d-%d", cfg.Seed, cfg.Events), rep)
	for _, v := range rep.Violations {
		t.Errorf("seed %d: invariant violated: %s", cfg.Seed, v)
	}
	c := rep.Counters
	if c["stream.produced"] == 0 {
		t.Errorf("seed %d: acked nothing, the schedule is degenerate: %v", cfg.Seed, rep.Actors)
	}
	if c["stream.drained"] < c["stream.produced"] {
		t.Errorf("seed %d: drained %d of %d acked", cfg.Seed, c["stream.drained"], c["stream.produced"])
	}
	if c["tenants.steadyDenied"] != 0 {
		t.Errorf("seed %d: protected tenant denied %d times", cfg.Seed, c["tenants.steadyDenied"])
	}
	return rep
}

// requireLive fails for each named counter that rep left at 0.
func requireLive(t *testing.T, rep Report, names ...string) {
	t.Helper()
	for _, k := range names {
		if rep.Counters[k] == 0 {
			t.Errorf("%s is 0: %v", k, rep.Actors)
		}
	}
}

// TestChaosReplayIsBitIdentical: same seed, same digest — the whole
// run, every actor's faults included, is a pure function of its config;
// and a different seed is a different run.
func TestChaosReplayIsBitIdentical(t *testing.T) {
	t.Parallel()
	rep := runChecked(t, Config{Seed: 7, Events: 600}, true)
	other := runChecked(t, Config{Seed: 8, Events: 600}, false)
	if other.Digest == rep.Digest {
		t.Fatal("different seeds produced identical digests")
	}
}

// TestMixedWorkloadCacheCoherence: stream produce/consume, lakehouse
// inserts and scans, scrub, physical tiering onto the compressing HDD
// tier and the read cache, all under the fault actors. Each run replays
// bit-identically, every cache-coherence probe sees device-identical
// bytes (a mismatch is a violation), and the cold tier compresses.
func TestMixedWorkloadCacheCoherence(t *testing.T) {
	t.Parallel()
	for _, seed := range []uint64{2, 3} {
		rep := runChecked(t, Config{Seed: seed, Events: 600}, true)
		requireLive(t, rep, "lakehouse.rows", "lakehouse.coherence", "lakehouse.cacheHits", "lakehouse.coldLogs")
		c := rep.Counters
		if c["lakehouse.coldComp"] >= c["lakehouse.coldRaw"] {
			t.Errorf("seed %d: cold tier stored %d bytes for %d raw: compression bought nothing",
				seed, c["lakehouse.coldComp"], c["lakehouse.coldRaw"])
		}
		t.Logf("seed %d: %d coherence probes, %d cache hits, %d cold logs storing %d of %d raw bytes", seed,
			c["lakehouse.coherence"], c["lakehouse.cacheHits"], c["lakehouse.coldLogs"], c["lakehouse.coldComp"], c["lakehouse.coldRaw"])
	}
}

// TestGroupCommitChaos: the batched flush path under disk kills acks
// and keeps every write, actually coalesces commits, and replays
// bit-identically.
func TestGroupCommitChaos(t *testing.T) {
	t.Parallel()
	rep := runChecked(t, Config{Seed: 5, Events: 600}, true)
	requireLive(t, rep, "stream.groupCommits", "disks.kills")
}

// TestHedgingCutsTailLatency: with one SSD slowed, re-reading the same
// run's data from the devices ends with a lower virtual-time read p99
// when hedged reads are on than when they are off.
func TestHedgingCutsTailLatency(t *testing.T) {
	t.Parallel()
	hedged, unhedged, rep, err := HedgeComparison(Config{Seed: 11, Events: 800}, 3*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "hedge-11", rep)
	for _, v := range rep.Violations {
		t.Errorf("invariant violated: %s", v)
	}
	if hedged.Hedged == 0 || hedged.Wins == 0 {
		t.Fatalf("degraded sweep never hedged: %+v", hedged)
	}
	if unhedged.Hedged != 0 {
		t.Fatalf("hedging off but hedged: %+v", unhedged)
	}
	if hedged.ReadP99 >= unhedged.ReadP99 {
		t.Fatalf("hedging did not cut read p99: hedged=%v unhedged=%v", hedged.ReadP99, unhedged.ReadP99)
	}
	t.Logf("read p99 hedged %v (%d hedges, %d won), unhedged %v", hedged.ReadP99, hedged.Hedged, hedged.Wins, unhedged.ReadP99)
}
