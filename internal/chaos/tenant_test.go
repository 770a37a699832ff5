package chaos

import "testing"

// TestNoisyNeighborChaos: a lower-priority tenant bursting past its
// quotas is throttled or shed while the protected steady tenant is never
// denied, every acked tenant write survives the drain, and the run —
// quota decisions included — replays bit-identically.
func TestNoisyNeighborChaos(t *testing.T) {
	t.Parallel()
	rep := runChecked(t, Config{Seed: 21, Events: 500}, true)
	requireLive(t, rep, "tenants.noisyAcked", "tenants.steadyAcked")
	if c := rep.Counters; c["tenants.noisyLimited"]+c["tenants.noisyShed"] == 0 {
		t.Fatalf("noisy tenant burst past its quota but was never throttled or shed: %v", rep.Actors)
	}
	// A different seed must reshuffle the quota decisions too.
	other := runChecked(t, Config{Seed: 22, Events: 500}, false)
	if other.Digest == rep.Digest {
		t.Fatal("different seeds produced identical digests")
	}
}
