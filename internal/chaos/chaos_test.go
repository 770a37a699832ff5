package chaos

import (
	"fmt"
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
// migrations, and the read cache all active under the full fault mix.
// It must replay bit-identically, break no streaming invariant, and
// every cache-coherence probe must see device-identical bytes.
func TestMixedWorkloadCacheCoherence(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		cfg := Config{
			Seed:       seed,
			Events:     400,
			DiskKills:  true,
			Corruption: true,
			Partitions: true,
			Hedging:    true,
			Mixed:      true,
			CacheMB:    16,
		}
		rep, same, err := RunWithReplay(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !same {
			t.Errorf("seed %d: mixed replay diverged (digest %x)", seed, rep.Digest)
		}
		checkDigest(t, fmt.Sprint("mixed-", seed), rep)
		for _, v := range rep.Violations {
			t.Errorf("seed %d: invariant violated: %s", seed, v)
		}
		if rep.TableRows == 0 || rep.Coherence == 0 {
			t.Errorf("seed %d: mixed schedule degenerate: rows=%d coherence=%d",
				seed, rep.TableRows, rep.Coherence)
		}
		if rep.Produced == 0 {
			t.Errorf("seed %d: streaming side acked nothing", seed)
		}
		if rep.CacheHits == 0 {
			t.Errorf("seed %d: cache never hit under mixed workload", seed)
		}
		t.Logf("seed %d: digest %x, %d coherence probes, %d cache hits", seed, rep.Digest, rep.Coherence, rep.CacheHits)
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

// TestCompressedMixedChaos: the mixed workload with cold-tier
// compression on. Tiering events push quiescent logs onto the HDD pool
// where their extents compress; subsequent reads, coherence probes, and
// the final drain all land on compressed extents and must stay
// bit-identical to the acked bytes. The run must actually compress
// (cold logs with stored < raw bytes), never inflate, and replay to the
// same digest — which now folds in the compression counters.
func TestCompressedMixedChaos(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		cfg := Config{
			Seed:       seed,
			Events:     400,
			DiskKills:  true,
			Corruption: true,
			Partitions: true,
			Hedging:    true,
			Compressed: true,
			CacheMB:    16,
		}
		rep, same, err := RunWithReplay(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !same {
			t.Errorf("seed %d: compressed replay diverged (digest %x)", seed, rep.Digest)
		}
		checkDigest(t, fmt.Sprint("compressed-", seed), rep)
		for _, v := range rep.Violations {
			t.Errorf("seed %d: invariant violated: %s", seed, v)
		}
		if rep.ColdLogs == 0 {
			t.Errorf("seed %d: no log ever compressed — the schedule missed the tiering boundary", seed)
		}
		if rep.ColdCompB >= rep.ColdRawB {
			t.Errorf("seed %d: cold tier stored %d bytes for %d raw — compression bought nothing",
				seed, rep.ColdCompB, rep.ColdRawB)
		}
		if rep.TableRows == 0 || rep.Coherence == 0 {
			t.Errorf("seed %d: mixed schedule degenerate: rows=%d coherence=%d",
				seed, rep.TableRows, rep.Coherence)
		}
		if rep.Produced == 0 {
			t.Errorf("seed %d: streaming side acked nothing", seed)
		}
		t.Logf("seed %d: digest %x, %d cold logs, %d of %d raw bytes stored", seed, rep.Digest, rep.ColdLogs, rep.ColdCompB, rep.ColdRawB)
	}
}

// TestCompressionOffReplaysLegacyDigest: Config.Compressed is a
// digest-compat knob — with it off, the mixed schedule must produce the
// exact digest it produced before compression existed (same RNG draws,
// same costs, same acked set). Guarded by comparing the off-run digest
// against a plain Mixed run of the same seed.
func TestCompressionOffReplaysLegacyDigest(t *testing.T) {
	base := Config{Seed: 7, Events: 300, DiskKills: true, Corruption: true, Mixed: true, CacheMB: 8}
	a, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "mixed-300-7", a)
	off := base
	off.Compressed = false // explicit: the zero value must change nothing
	b, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("compression-off run diverged from the legacy schedule: %x vs %x", a.Digest, b.Digest)
	}
	on := base
	on.Compressed = true
	c, err := Run(on)
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "compressed-300-7", c)
	if len(c.Violations) != 0 {
		t.Fatalf("compressed run violated invariants: %v", c.Violations)
	}
}
