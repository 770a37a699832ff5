package chaos

import "testing"

// TestNoisyNeighborChaos: with the tenant plane on, a lower-priority
// tenant bursting far past its bandwidth quota is throttled while the
// protected steady tenant is never denied, every acked tenant write
// survives the drain, and the whole run — quota decisions included —
// replays bit-identically.
func TestNoisyNeighborChaos(t *testing.T) {
	cfg := Config{
		Seed:          21,
		Events:        500,
		NoisyNeighbor: true,
		Partitions:    true,
		DiskKills:     true,
	}
	rep, same, err := RunWithReplay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !same {
		t.Fatalf("noisy-neighbor replay diverged (digest %x)", rep.Digest)
	}
	checkDigest(t, "noisy-21", rep)
	for _, v := range rep.Violations {
		t.Errorf("invariant violated: %s", v)
	}
	if rep.NoisyAcked == 0 || rep.SteadyAcked == 0 {
		t.Fatalf("degenerate tenant schedule: %+v", rep)
	}
	if rep.NoisyLimited == 0 {
		t.Fatalf("noisy tenant burst past its quota but was never throttled: %+v", rep)
	}
	// The steady tenant has no quotas and the most protected priority:
	// isolation means the noisy tenant's abuse never denies it.
	if rep.SteadyDenied != 0 {
		t.Fatalf("protected tenant was denied %d times: %+v", rep.SteadyDenied, rep)
	}
	if rep.Drained < rep.Produced {
		t.Fatalf("acked tenant writes lost in the drain: %+v", rep)
	}
	// A different seed must reshuffle the quota decisions too.
	other, err := Run(Config{Seed: 22, Events: 500, NoisyNeighbor: true, Partitions: true, DiskKills: true})
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "noisy-22", other)
	if other.Digest == rep.Digest {
		t.Fatal("different seeds produced identical noisy-neighbor digests")
	}
}
