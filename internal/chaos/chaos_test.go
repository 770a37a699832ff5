package chaos

import (
	"testing"
	"time"
)

func fullChaos(seed uint64) Config {
	return Config{
		Seed:       seed,
		Events:     400,
		DiskKills:  true,
		Corruption: true,
		Partitions: true,
		Hedging:    true,
		DeadlineMS: 50,
	}
}

// TestChaosInvariantsHold: the full fault mix — drops, delays,
// partitions, disk kills, corruption, deadlines — breaks no invariant:
// nothing acked is lost, nothing appends twice, offsets stay monotonic.
func TestChaosInvariantsHold(t *testing.T) {
	rep, err := Run(fullChaos(1))
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "full-1", rep)
	for _, v := range rep.Violations {
		t.Errorf("invariant violated: %s", v)
	}
	if rep.Produced == 0 {
		t.Fatal("chaos run acked nothing — the schedule is degenerate")
	}
	if rep.NetDrops == 0 || rep.Retries == 0 {
		t.Fatalf("chaos run exercised no network faults: %+v", rep)
	}
	if rep.Drained < rep.Produced {
		t.Fatalf("drain returned fewer records than were acked: %+v", rep)
	}
}

// TestChaosReplayIsBitIdentical: same seed, same digest — the whole
// run, faults and all, is a pure function of its config.
func TestChaosReplayIsBitIdentical(t *testing.T) {
	rep, same, err := RunWithReplay(fullChaos(7))
	if err != nil {
		t.Fatal(err)
	}
	if !same {
		t.Fatalf("replay diverged from original run (digest %x)", rep.Digest)
	}
	checkDigest(t, "full-7", rep)
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	// And a different seed must actually produce a different run.
	other, err := Run(fullChaos(8))
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "full-8", other)
	if other.Digest == rep.Digest {
		t.Fatal("different seeds produced identical digests")
	}
}

// TestHedgingCutsTailLatency: with a degraded disk in the read path,
// the same chaos schedule ends with a measurably lower virtual-time
// read p99 when hedged reads are on than when they are off.
func TestHedgingCutsTailLatency(t *testing.T) {
	run := func(hedge bool) Report {
		// A long schedule over several streams: slices flush to PLogs
		// spread across the pool, so the degraded disk slows a minority
		// of primaries and the hedge quantile stays honest.
		cfg := Config{Seed: 11, Events: 6000, Streams: 6, Hedging: hedge, DropRate: 0.05}
		rep, err := RunDegraded(cfg, 3*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		name := "unhedged-11"
		if hedge {
			name = "hedged-11"
		}
		checkDigest(t, name, rep)
		if len(rep.Violations) != 0 {
			t.Fatalf("violations (hedge=%v): %v", hedge, rep.Violations)
		}
		return rep
	}
	hedged := run(true)
	unhedged := run(false)
	if hedged.Hedged == 0 || hedged.HedgeWins == 0 {
		t.Fatalf("degraded run never hedged: %+v", hedged)
	}
	if unhedged.Hedged != 0 {
		t.Fatalf("hedging disabled but hedged: %+v", unhedged)
	}
	if hedged.ReadP99 >= unhedged.ReadP99 {
		t.Fatalf("hedging did not cut read p99: hedged=%v unhedged=%v", hedged.ReadP99, unhedged.ReadP99)
	}
}

// TestMixedWorkloadCacheCoherence: the everything-at-once run — stream
// produce/consume, lakehouse inserts and scans, scrub, physical tiering
// migrations onto the compressing HDD tier, and the read cache all
// active under the full fault mix. It must replay bit-identically, break
// no streaming invariant, every cache-coherence probe must see
// device-identical bytes, and the cold tier must actually compress
// (cold logs, stored < raw bytes). mixed-300-7 is a shorter schedule
// without partitions or hedging and with a smaller cache.
func TestMixedWorkloadCacheCoherence(t *testing.T) {
	full := func(seed uint64) Config {
		return Config{
			Seed:       seed,
			Events:     400,
			DiskKills:  true,
			Corruption: true,
			Partitions: true,
			Hedging:    true,
			Mixed:      true,
			CacheMB:    16,
		}
	}
	runs := []struct {
		name string
		cfg  Config
	}{
		{"mixed-1", full(1)},
		{"mixed-300-7", Config{Seed: 7, Events: 300, DiskKills: true, Corruption: true, Mixed: true, CacheMB: 8}},
		{"mixed-2", full(2)},
		{"mixed-3", full(3)},
	}
	if testing.Short() {
		runs = runs[:2]
	}
	for _, run := range runs {
		rep, same, err := RunWithReplay(run.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !same {
			t.Errorf("%s: mixed replay diverged (digest %x)", run.name, rep.Digest)
		}
		checkDigest(t, run.name, rep)
		for _, v := range rep.Violations {
			t.Errorf("%s: invariant violated: %s", run.name, v)
		}
		if rep.TableRows == 0 || rep.Coherence == 0 {
			t.Errorf("%s: mixed schedule degenerate: rows=%d coherence=%d",
				run.name, rep.TableRows, rep.Coherence)
		}
		if rep.Produced == 0 {
			t.Errorf("%s: streaming side acked nothing", run.name)
		}
		if rep.CacheHits == 0 {
			t.Errorf("%s: cache never hit under mixed workload", run.name)
		}
		if rep.ColdLogs == 0 {
			t.Errorf("%s: no log ever compressed — the schedule missed the tiering boundary", run.name)
		}
		if rep.ColdCompB >= rep.ColdRawB {
			t.Errorf("%s: cold tier stored %d bytes for %d raw — compression bought nothing",
				run.name, rep.ColdCompB, rep.ColdRawB)
		}
		t.Logf("%s: digest %x, %d coherence probes, %d cache hits, %d cold logs storing %d of %d raw bytes",
			run.name, rep.Digest, rep.Coherence, rep.CacheHits, rep.ColdLogs, rep.ColdCompB, rep.ColdRawB)
	}
}

// TestGroupCommitChaos: the batched flush path under faults. With group
// commit on (4 slices per coalesced device write), a long two-stream
// schedule with disk kills must ack-and-keep every write, actually
// exercise coalesced commits, and replay bit-identically. (The schedule
// is 10x the default length so streams buffer past the group trigger;
// at this length random corruption would overwhelm 3x replication
// between scrub passes — an injector limit, not a flush-path property —
// so this run stresses disk death only.)
func TestGroupCommitChaos(t *testing.T) {
	cfg := Config{
		Seed:        5,
		Events:      4000,
		Streams:     2,
		DiskKills:   true,
		GroupCommit: true,
	}
	rep, same, err := RunWithReplay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !same {
		t.Fatalf("group-commit replay diverged (digest %x)", rep.Digest)
	}
	checkDigest(t, "group-commit-5", rep)
	for _, v := range rep.Violations {
		t.Errorf("invariant violated: %s", v)
	}
	if rep.GroupCommits == 0 {
		t.Fatalf("schedule never reached the group-commit trigger: %+v", rep)
	}
	if rep.DiskKills == 0 {
		t.Fatalf("no disks died; the run proved nothing about faulted batches: %+v", rep)
	}
	if rep.Drained < rep.Produced {
		t.Fatalf("acked writes lost through the batched path: %+v", rep)
	}
}
