package cluster

import (
	"fmt"
	"testing"

	"streamlake/internal/sim"
)

// logLens snapshots every node's retained log length.
func logLens(c *Cluster) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = len(n.log)
	}
	return out
}

// TestLogKeepsOnlyUncommittedTail: 10,000 produce commits leave every
// log holding at most the entry its followers have not yet learned is
// committed, and the one being proposed — none of it on a lone voter —
// while Applied and Status keep counting from the first entry ever.
func TestLogKeepsOnlyUncommittedTail(t *testing.T) {
	const commits = 10_000
	for _, tc := range []struct{ nodes, most int }{{1, 1}, {3, 2}} {
		t.Run(fmt.Sprintf("nodes=%d", tc.nodes), func(t *testing.T) {
			c, _, _ := newTestCluster(t, tc.nodes, 3)
			for i := 0; i < commits; i++ {
				if _, err := c.CommitProduce("t", i%4, int64(i/4), 1); err != nil {
					t.Fatalf("commit %d: %v", i, err)
				}
				for n, l := range logLens(c) {
					if l > tc.most {
						t.Fatalf("after commit %d node %d holds %d entries, want ≤ %d", i, n, l, tc.most)
					}
				}
			}
			if got := c.Applied(); got != commits {
				t.Fatalf("applied %d, want %d", got, commits)
			}
			for _, n := range c.Status().Nodes {
				if n.LogLen != commits || n.Commit < commits-1 {
					t.Fatalf("node %d reports log=%d/%d, want %d/%d", n.ID, n.Commit, n.LogLen, commits, commits)
				}
			}
			for s := 0; s < 4; s++ {
				if !c.ProduceCommitted("t", s, 0, commits/4) {
					t.Fatalf("stream %d: the batches do not fold into one committed run", s)
				}
			}
			assertPrefixConsistent(t, c)
		})
	}
}

// TestKilledFollowerPinsTheLog: a dead follower has not committed what
// the others commit, so nothing can be dropped and the log grows while
// it is down; once it revives and catches up, the log shrinks back.
func TestKilledFollowerPinsTheLog(t *testing.T) {
	c, clock, _ := newTestCluster(t, 3, 5)
	victim := (c.Leader() + 1) % 3
	next := int64(0)
	commit := func(n int) {
		for ; n > 0; n-- {
			if _, err := c.CommitProduce("t", 0, next, 1); err != nil {
				t.Fatalf("commit %d: %v", next, err)
			}
			next++
		}
	}
	commit(100)
	if err := c.KillNode(victim); err != nil {
		t.Fatal(err)
	}
	commit(1000)
	if l := logLens(c)[c.Leader()]; l < 1000 {
		t.Fatalf("leader holds %d entries with a follower down, want ≥ 1000", l)
	}
	if err := c.ReviveNode(victim); err != nil {
		t.Fatal(err)
	}
	caughtUp := stepUntil(c, clock, 200, func() bool {
		for _, l := range logLens(c) {
			if l > 2 {
				return false
			}
		}
		return c.Status().Nodes[victim].Commit >= int(next)
	})
	if !caughtUp {
		t.Fatalf("logs %v after the revival, victim committed %d of %d", logLens(c), c.Status().Nodes[victim].Commit, next)
	}
	assertPrefixConsistent(t, c)
}

// TestProduceCommittedMatchesModel: the committed offset runs answer
// exactly as a per-offset set does, over batches committed in order,
// retried, out of order and with gaps that are never filled.
func TestProduceCommittedMatchesModel(t *testing.T) {
	c, _, _ := newTestCluster(t, 1, 7)
	rng := sim.NewRNG(7)
	model := map[[2]int64]bool{} // (stream, offset)
	var done [][3]int64          // committed batches: stream, base, count
	commit := func(stream int, base int64, count int) {
		if _, err := c.CommitProduce("t", stream, base, count); err != nil {
			t.Fatal(err)
		}
		for o := base; o < base+int64(count); o++ {
			model[[2]int64{int64(stream), o}] = true
		}
		done = append(done, [3]int64{int64(stream), base, int64(count)})
	}
	check := func(stream int, base int64, count int) {
		want := true
		for o := base; o < base+int64(count); o++ {
			want = want && model[[2]int64{int64(stream), o}]
		}
		if got := c.ProduceCommitted("t", stream, base, count); got != want {
			t.Fatalf("ProduceCommitted(stream %d, [%d, %d)) = %v, the model says %v", stream, base, base+int64(count), got, want)
		}
	}
	next := [3]int64{}
	for step := 0; step < 4000; step++ {
		s := rng.Intn(3)
		count := 1 + rng.Intn(5)
		switch r := rng.Intn(10); {
		case r < 5: // in order
			commit(s, next[s], count)
			next[s] += int64(count)
		case r < 7 && len(done) > 0: // a retry of a committed batch
			b := done[rng.Intn(len(done))]
			commit(int(b[0]), b[1], int(b[2]))
		case r < 9: // ahead of the stream, leaving a gap the stream fills later
			commit(s, next[s]+int64(1+rng.Intn(20)), count)
		default: // a gap that is never filled
			next[s] += int64(1 + rng.Intn(3))
		}
		for q := 0; q < 4; q++ {
			check(rng.Intn(3), int64(rng.Intn(int(next[s])+30)), 1+rng.Intn(8))
		}
	}
	for s := 0; s < 3; s++ {
		for o := int64(0); o < next[s]+30; o++ {
			check(s, o, 1)
		}
	}
}

// TestCompactionCountsDivergence: a committed entry planted to differ on
// one follower is counted when the prefix holding it is dropped.
func TestCompactionCountsDivergence(t *testing.T) {
	c, _, _ := newTestCluster(t, 3, 9)
	if _, err := c.CommitProduce("t", 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	// The leader committed entry 0; the followers hold it and learn so on
	// the next append, which drops it.
	f := (c.Leader() + 1) % 3
	c.mu.Lock()
	if len(c.nodes[f].log) != 1 {
		c.mu.Unlock()
		t.Fatalf("follower holds %d entries before the plant, want 1", len(c.nodes[f].log))
	}
	c.nodes[f].log[0].Base = 99
	c.mu.Unlock()
	if _, err := c.CommitProduce("t", 0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if d := c.Stats().Diverged; d != 1 {
		t.Fatalf("Diverged = %d after dropping a planted mismatch, want 1", d)
	}
}

// TestProduceCommitAllocatesNothing: once a stream has committed once, a
// produce commit allocates nothing, on one node or three.
func TestProduceCommitAllocatesNothing(t *testing.T) {
	for _, nodes := range []int{1, 3} {
		c, _, _ := newTestCluster(t, nodes, 11)
		next := int64(0)
		commit := func() {
			if _, err := c.CommitProduce("t", 0, next, 1); err != nil {
				t.Fatal(err)
			}
			next++
		}
		commit()
		commit()
		if a := testing.AllocsPerRun(1000, commit); a != 0 {
			t.Fatalf("nodes=%d: %.2f allocations per commit, want 0", nodes, a)
		}
	}
}
