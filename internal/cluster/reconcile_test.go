package cluster

import (
	"fmt"
	"slices"
	"testing"

	"streamlake/internal/faults"
	"streamlake/internal/sim"
)

// forwardScan is the reconciliation reconcileLocked replaced, kept as
// the oracle: find the match point by scanning up from index 0, which
// needs no Log Matching to be right. It returns what the peer's log and
// commit index must become.
func forwardScan(lead, peer *nodeState) (log []Entry, commit int) {
	n := min(len(peer.log), len(lead.log))
	k := 0
	for k < n && peer.log[k].Term == lead.log[k].Term {
		k++
	}
	log = append(slices.Clone(peer.log[:k]), lead.log[k:]...)
	return log, min(lead.commit, len(log))
}

// reconcileChecked runs reconcileLocked(lead, peer) against the oracle
// and then checks Log Matching over the whole cluster.
func reconcileChecked(t *testing.T, c *Cluster, lead, peer *nodeState, what string) {
	t.Helper()
	wantLog, wantCommit := forwardScan(lead, peer)
	c.reconcileLocked(lead, peer)
	if !slices.Equal(peer.log, wantLog) || peer.commit != wantCommit {
		t.Fatalf("%s: node %d ← leader %d: got len %d commit %d, forward scan wants len %d commit %d",
			what, peer.id, lead.id, len(peer.log), peer.commit, len(wantLog), wantCommit)
	}
	if !slices.Equal(peer.log, lead.log) {
		t.Fatalf("%s: node %d's log is not the leader's after reconcile", what, peer.id)
	}
	if err := c.CheckLogMatching(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// TestReconcileMatchPointEqualsForwardScan drives five logs through
// seeded random histories under the only two rules the protocol has —
// a term has one leader, who appends entries of that term to its own
// log; a log otherwise changes only by being reconciled to a leader
// whose term is not behind its own — and requires every reconcile to
// leave the peer exactly where the forward scan would. The histories
// hit every shape the walk back has to get right: followers in step,
// followers lagging by many entries, empty logs, a deposed leader whose
// stranded tail is longer than the new leader's whole log, and a new
// leader elected from a short log (no election restriction here: Log
// Matching does not depend on it, and the walk relies on nothing else).
func TestReconcileMatchPointEqualsForwardScan(t *testing.T) {
	const nodes = 5
	shapes := map[string]int{}
	defer func() {
		t.Logf("shapes reconciled: %v", shapes)
		for _, s := range []string{"in step", "peer behind", "peer empty", "peer longer", "conflict tail", "both empty"} {
			if shapes[s] == 0 {
				t.Errorf("no history reconciled the shape %q (saw %v)", s, shapes)
			}
		}
	}()
	for seed := uint64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := sim.NewRNG(seed)
			c := New(Config{Nodes: nodes, Seed: seed}, sim.NewClock(), faults.NewNetPlane(seed))
			pick := func() *nodeState { return c.nodes[rng.Int63n(nodes)] }
			// won[i] is the term node i last won. It leads, in its own
			// eyes, until a reconcile moves its term past that — so a
			// deposed leader nobody has reached yet still appends and
			// still replicates to peers that have not heard of its
			// successor, which is how stranded tails come to exist.
			var won [nodes]int64
			leads := func(n *nodeState) bool { return won[n.id] != 0 && n.term == won[n.id] }
			// someLeader is the newest leader five times in six, else
			// any node that still believes it leads (nil if it doesn't).
			var term int64
			newest := c.nodes[0]
			someLeader := func() *nodeState {
				n := newest
				if rng.Int63n(6) == 0 {
					n = pick()
				}
				if !leads(n) {
					return nil
				}
				return n
			}
			reconciles := 0
			for step := 0; step < 600; step++ {
				switch r := rng.Int63n(100); {
				case r < 10 || term == 0:
					// A new term's leader: any node, whatever its log.
					term++
					newest = pick()
					newest.term, won[newest.id] = term, term
				case r < 45:
					// A leader appends a burst to its own log only.
					if n := someLeader(); n != nil {
						for i := rng.Int63n(8); i >= 0; i-- {
							n.log = append(n.log, Entry{Term: n.term, Kind: "meta",
								Data: fmt.Sprintf("%d/%d", n.term, len(n.log))})
						}
					}
				case r < 50:
					// A quorum acked: the leader's commit index advances.
					if n := someLeader(); n != nil {
						n.commit = len(n.log)
					}
				default:
					from, peer := someLeader(), pick()
					if from == nil || from == peer || from.term < peer.term {
						continue // no leader drawn, or the term fence refuses it
					}
					peer.term = from.term
					shapes[shapeOf(from, peer)]++
					reconcileChecked(t, c, from, peer, fmt.Sprintf("step %d", step))
					reconciles++
				}
			}
			for _, peer := range c.nodes {
				if peer != newest {
					peer.term = newest.term
					reconcileChecked(t, c, newest, peer, "final convergence")
				}
			}
			if reconciles < 100 || c.walkSteps == 0 {
				t.Fatalf("history too tame: %d reconciles, %d entries walked back", reconciles, c.walkSteps)
			}
		})
	}
}

// shapeOf names the case a reconcile is about to handle.
func shapeOf(lead, peer *nodeState) string {
	switch {
	case len(peer.log) == 0 && len(lead.log) == 0:
		return "both empty"
	case len(peer.log) == 0:
		return "peer empty"
	case len(peer.log) > len(lead.log):
		return "peer longer"
	case !slices.Equal(peer.log, lead.log[:len(peer.log)]):
		return "conflict tail"
	case len(peer.log) < len(lead.log):
		return "peer behind"
	default:
		return "in step"
	}
}

// TestCheckLogMatchingCatchesForks: the invariant helper must fail on
// the two ways the property can break — one index, one term, two
// entries; and a term match sitting on top of prefixes that differ.
func TestCheckLogMatchingCatchesForks(t *testing.T) {
	e := func(term int64, data string) Entry { return Entry{Term: term, Kind: "meta", Data: data} }
	for name, tc := range map[string]struct {
		a, b []Entry
		ok   bool
	}{
		"identical":            {[]Entry{e(1, "x"), e(2, "y")}, []Entry{e(1, "x"), e(2, "y")}, true},
		"prefix":               {[]Entry{e(1, "x")}, []Entry{e(1, "x"), e(2, "y")}, true},
		"diverged tails":       {[]Entry{e(1, "x"), e(2, "y")}, []Entry{e(1, "x"), e(3, "z")}, true},
		"nothing in common":    {[]Entry{e(1, "x")}, []Entry{e(2, "y")}, true},
		"same term, two data":  {[]Entry{e(1, "x"), e(2, "y")}, []Entry{e(1, "x"), e(2, "z")}, false},
		"match over bad below": {[]Entry{e(1, "x"), e(3, "y")}, []Entry{e(2, "w"), e(3, "y")}, false},
	} {
		c := New(Config{Nodes: 3, Seed: 1}, sim.NewClock(), faults.NewNetPlane(1))
		c.nodes[0].log, c.nodes[2].log = tc.a, tc.b
		if err := c.CheckLogMatching(); (err == nil) != tc.ok {
			t.Errorf("%s: CheckLogMatching = %v, want ok=%v", name, err, tc.ok)
		}
	}
}

// TestReconcileRevivedFollowerCatchesUpInOneCall: a peer 15,000 entries
// behind is made whole by one reconcile, and because its log is a
// prefix of the leader's the walk back does not take a single step.
func TestReconcileRevivedFollowerCatchesUpInOneCall(t *testing.T) {
	c := New(Config{Nodes: 3, Seed: 1}, sim.NewClock(), faults.NewNetPlane(1))
	lead, peer := c.nodes[0], c.nodes[1]
	lead.term, peer.term = 1, 1
	for i := 0; i < 15_100; i++ {
		lead.log = append(lead.log, Entry{Term: 1, Kind: "produce", Data: fmt.Sprint(i)})
		if i == 99 {
			peer.log = slices.Clone(lead.log)
		}
	}
	lead.commit = len(lead.log)
	reconcileChecked(t, c, lead, peer, "revive")
	if peer.commit != 15_100 || c.walkSteps != 0 {
		t.Fatalf("commit %d, walked back %d entries; want 15100 and 0", peer.commit, c.walkSteps)
	}
}

// TestCommitCostIsFlatInLogLength is the guard that cannot flake: it
// counts steps, not nanoseconds. 20,000 commits on 3 nodes, a follower
// dead for the second quarter, heartbeat boundaries throughout. The
// walk back spends one term compare per call plus one per entry it
// steps over, and nothing here ever diverges, so it should step over
// none; the forward scan it replaced spent one compare per log entry —
// 11,000 per call on average, 385 million over this run.
func TestCommitCostIsFlatInLogLength(t *testing.T) {
	const commits = 20_000
	c, clock, _ := newTestCluster(t, 3, 17)
	victim := (c.Leader() + 1) % 3
	var calls int64 // commit × live peer
	for i := 0; i < commits; i++ {
		switch i {
		case commits / 4:
			if err := c.KillNode(victim); err != nil {
				t.Fatal(err)
			}
		case commits / 2:
			if err := c.ReviveNode(victim); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.CommitProduce("t", i%4, int64(i), 1); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		calls++
		if i < commits/4 || i >= commits/2 {
			calls++
		}
		if i%16 == 0 {
			step(c, clock)
		}
	}
	if !stepUntil(c, clock, 200, func() bool { return c.CurrentView().Alive[victim] }) {
		t.Fatal("revived follower never committed alive")
	}
	assertPrefixConsistent(t, c)
	if got := len(c.CommittedLog(victim)); got < commits {
		t.Fatalf("revived follower holds %d committed entries, want ≥ %d", got, commits)
	}
	c.mu.Lock()
	steps := c.walkSteps
	c.mu.Unlock()
	// Budget: 4 term compares per (commit × live peer). A call compares
	// once and then once more per entry it steps over, so that is 3
	// steps per call. Heartbeat and membership reconciles step into the
	// same counter without adding to calls, which only tightens it.
	if steps > 3*calls {
		t.Fatalf("reconcile walked back over %d entries in %d (commit × live peer) calls: %.1f per call, budget 3",
			steps, calls, float64(steps)/float64(calls))
	}
	t.Logf("%d commits, %d (commit × live peer) calls, %d entries walked back", commits, calls, steps)
}

// BenchmarkCommitProduce times one quorum commit on 3 nodes with the
// log held at a fixed length (trimmed back every 1,024 commits, off the
// clock), so log=1k and log=64k differ in nothing but how much log sits
// below the entry being committed. They should report the same ns/op.
func BenchmarkCommitProduce(b *testing.B) {
	for _, size := range []int{1 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("log=%dk", size>>10), func(b *testing.B) {
			c, _, _ := newTestCluster(b, 3, 9)
			next := int64(0)
			commit := func() {
				if _, err := c.CommitProduce("bench", 0, next, 1); err != nil {
					b.Fatal(err)
				}
				next++
			}
			for c.Applied() < size {
				commit()
			}
			size = c.Applied()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%1024 == 1023 {
					b.StopTimer()
					for _, e := range c.nodes[c.Leader()].log[size:] {
						delete(c.produced, e.Data)
					}
					for _, n := range c.nodes {
						n.log, n.commit = n.log[:size], size
					}
					c.applied = size
					b.StartTimer()
				}
				commit()
			}
		})
	}
}
