package cluster

import (
	"errors"
	"testing"
	"time"

	"streamlake/internal/faults"
	"streamlake/internal/sim"
)

func newTestCluster(t testing.TB, nodes int, seed uint64) (*Cluster, *sim.Clock, *faults.NetPlane) {
	t.Helper()
	clock := sim.NewClock()
	net := faults.NewNetPlane(seed)
	c := New(Config{Nodes: nodes, Seed: seed}, clock, net)
	if err := c.Bootstrap(); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	return c, clock, net
}

// step advances one heartbeat period and ticks the cluster plane.
func step(c *Cluster, clock *sim.Clock) {
	clock.Advance(heartbeatEvery)
	c.Tick()
}

// stepUntil steps until cond holds or maxSteps heartbeats pass.
func stepUntil(c *Cluster, clock *sim.Clock, maxSteps int, cond func() bool) bool {
	for i := 0; i < maxSteps; i++ {
		if cond() {
			return true
		}
		step(c, clock)
	}
	return cond()
}

// partitionNodes blocks both directions between every pair drawn from
// the two groups.
func partitionNodes(net *faults.NetPlane, groupA, groupB []int) {
	for _, a := range groupA {
		for _, b := range groupB {
			net.Partition(nodeEndpoint(a), nodeEndpoint(b))
			net.Partition(nodeEndpoint(b), nodeEndpoint(a))
		}
	}
}

func TestBootstrapElectsLeader(t *testing.T) {
	c, _, _ := newTestCluster(t, 5, 42)
	lead := c.Leader()
	if lead < 0 || lead >= 5 {
		t.Fatalf("no leader after bootstrap: %d", lead)
	}
	v := c.CurrentView()
	if v.Leader != lead {
		t.Fatalf("view leader %d != %d", v.Leader, lead)
	}
	for term, wins := range c.LeaderCountByTerm() {
		if wins > 1 {
			t.Fatalf("term %d elected %d leaders", term, wins)
		}
	}
}

func TestBootstrapDeterministic(t *testing.T) {
	c1, clock1, _ := newTestCluster(t, 5, 99)
	c2, clock2, _ := newTestCluster(t, 5, 99)
	if c1.Leader() != c2.Leader() {
		t.Fatalf("same seed, different leaders: %d vs %d", c1.Leader(), c2.Leader())
	}
	if clock1.Now() != clock2.Now() {
		t.Fatalf("same seed, different bootstrap times: %v vs %v", clock1.Now(), clock2.Now())
	}
	if c1.CurrentView().Term != c2.CurrentView().Term {
		t.Fatalf("same seed, different terms")
	}
}

func TestLeaderFailoverAndDeadCommit(t *testing.T) {
	c, clock, _ := newTestCluster(t, 5, 7)
	old := c.Leader()
	start := clock.Now()
	if err := c.KillNode(old); err != nil {
		t.Fatalf("kill: %v", err)
	}
	// A new leader must emerge and the death must commit to membership.
	ok := stepUntil(c, clock, 200, func() bool {
		l := c.Leader()
		return l >= 0 && l != old && !c.CurrentView().Alive[old]
	})
	if !ok {
		t.Fatalf("no failover: leader=%d alive[%d]=%v", c.Leader(), old, c.CurrentView().Alive[old])
	}
	elapsed := clock.Now() - start
	budget := 4 * (deadAfter + 2*electionTimeout)
	if elapsed > budget {
		t.Fatalf("failover took %v, budget %v", elapsed, budget)
	}
	for term, wins := range c.LeaderCountByTerm() {
		if wins > 1 {
			t.Fatalf("term %d elected %d leaders", term, wins)
		}
	}
	// Revival: heartbeats resume, the leader proposes it alive again.
	if err := c.ReviveNode(old); err != nil {
		t.Fatalf("revive: %v", err)
	}
	ok = stepUntil(c, clock, 200, func() bool { return c.CurrentView().Alive[old] })
	if !ok {
		t.Fatal("revived node never committed alive")
	}
}

func TestSuspectPrecedesDead(t *testing.T) {
	c, clock, _ := newTestCluster(t, 3, 11)
	victim := (c.Leader() + 1) % 3
	c.KillNode(victim)
	// After suspectAfter of silence the view marks it suspect, while the
	// committed membership still lists it alive.
	sawSuspectAlive := false
	stepUntil(c, clock, 200, func() bool {
		v := c.CurrentView()
		if v.Suspect[victim] && v.Alive[victim] {
			sawSuspectAlive = true
		}
		return !v.Alive[victim]
	})
	if !sawSuspectAlive {
		t.Fatal("never observed suspect-but-not-yet-dead window")
	}
	if c.CurrentView().Alive[victim] {
		t.Fatal("death never committed")
	}
}

func TestMinorityCannotCommit(t *testing.T) {
	c, clock, net := newTestCluster(t, 5, 13)
	lead := c.Leader()
	other := (lead + 1) % 5
	minority := []int{lead, other}
	var majority []int
	for i := 0; i < 5; i++ {
		if i != lead && i != other {
			majority = append(majority, i)
		}
	}
	partitionNodes(net, minority, majority)
	// The stale leader can append locally but can reach only one peer:
	// two acks out of five is not a majority.
	if _, err := c.CommitProduce("t", 0, 0, 10); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("minority commit: want ErrNoQuorum, got %v", err)
	}
	if c.ProduceCommitted("t", 0, 0, 10) {
		t.Fatal("minority-side produce must not apply")
	}
	// The majority side elects a fresh leader with a higher term and can
	// commit again.
	ok := stepUntil(c, clock, 400, func() bool {
		l := c.Leader()
		for _, m := range majority {
			if l == m {
				return true
			}
		}
		return false
	})
	if !ok {
		t.Fatalf("majority never elected a leader; leader=%d", c.Leader())
	}
	if _, err := c.CommitProduce("t", 0, 10, 5); err != nil {
		t.Fatalf("majority commit: %v", err)
	}
	if !c.ProduceCommitted("t", 0, 10, 5) {
		t.Fatal("majority-side produce did not apply")
	}
	// Heal: the stale leader steps down and converges onto the new log.
	net.HealAll()
	stepUntil(c, clock, 200, func() bool {
		logA := c.CommittedLog(lead)
		logB := c.CommittedLog(c.Leader())
		if len(logA) > len(logB) {
			return false
		}
		for i := range logA {
			if logA[i] != logB[i] {
				return false
			}
		}
		return len(logA) == len(logB)
	})
	assertPrefixConsistent(t, c)
	for term, wins := range c.LeaderCountByTerm() {
		if wins > 1 {
			t.Fatalf("term %d elected %d leaders", term, wins)
		}
	}
}

// assertPrefixConsistent checks every pair of committed logs agree on
// their common prefix — the replicated-state safety invariant — and
// that Log Matching holds over the full logs.
func assertPrefixConsistent(t *testing.T, c *Cluster) {
	t.Helper()
	if err := c.CheckLogMatching(); err != nil {
		t.Fatal(err)
	}
	n := c.Nodes()
	logs := make([][]Entry, n)
	for i := 0; i < n; i++ {
		logs[i] = c.CommittedLog(i)
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			m := len(logs[a])
			if len(logs[b]) < m {
				m = len(logs[b])
			}
			for i := 0; i < m; i++ {
				if logs[a][i] != logs[b][i] {
					t.Fatalf("committed logs diverge at %d: node%d=%+v node%d=%+v",
						i, a, logs[a][i], b, logs[b][i])
				}
			}
		}
	}
}

func TestCommitProduceIdempotent(t *testing.T) {
	c, _, _ := newTestCluster(t, 3, 5)
	if _, err := c.CommitProduce("topic", 2, 100, 7); err != nil {
		t.Fatalf("first commit: %v", err)
	}
	before := c.Applied()
	cost, err := c.CommitProduce("topic", 2, 100, 7)
	if err != nil || cost != 0 {
		t.Fatalf("retry commit: cost=%v err=%v", cost, err)
	}
	if c.Applied() != before {
		t.Fatal("retry appended a duplicate entry")
	}
}

func TestMetaReplication(t *testing.T) {
	c, clock, _ := newTestCluster(t, 3, 5)
	if _, err := c.ProposeMeta("topic/events"); err != nil {
		t.Fatalf("propose meta: %v", err)
	}
	if !c.MetaCommitted("topic/events") {
		t.Fatal("meta record not applied")
	}
	// Followers learn the commit index from the next leader beat.
	step(c, clock)
	// Every node's committed log carries it.
	for i := 0; i < 3; i++ {
		found := false
		for _, e := range c.CommittedLog(i) {
			if e.Kind == "meta" && e.Data == "topic/events" {
				found = true
			}
		}
		if !found {
			t.Fatalf("node %d committed log missing meta record", i)
		}
	}
}

// TestVotedForSurvivesKillRevive pins the vote's durability: votedFor is
// part of a node's durable state (alongside term and log). A node that
// voted in term T, died, and revived with votedFor reset could vote
// again in T — two leaders for one term, divergent committed logs.
func TestVotedForSurvivesKillRevive(t *testing.T) {
	c, _, _ := newTestCluster(t, 5, 42)
	// Bootstrap's election left a majority of followers with votedFor
	// recorded — pick one.
	c.mu.Lock()
	voter, want := -1, -1
	for _, n := range c.nodes {
		if n.role != Leader && n.votedFor != -1 {
			voter, want = n.id, n.votedFor
			break
		}
	}
	c.mu.Unlock()
	if voter < 0 {
		t.Fatal("no follower recorded a vote after bootstrap")
	}
	if err := c.KillNode(voter); err != nil {
		t.Fatalf("kill: %v", err)
	}
	if err := c.ReviveNode(voter); err != nil {
		t.Fatalf("revive: %v", err)
	}
	c.mu.Lock()
	got := c.nodes[voter].votedFor
	c.mu.Unlock()
	if got != want {
		t.Fatalf("votedFor not durable across kill/revive: got %d, want %d", got, want)
	}
}

func TestMetaTombstoneReplicatesDeletion(t *testing.T) {
	c, _, _ := newTestCluster(t, 3, 5)
	if _, err := c.ProposeMeta("topic/events"); err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := c.ProposeMetaDelete("topic/events"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if c.MetaCommitted("topic/events") {
		t.Fatal("tombstone did not clear the committed key")
	}
	// Deleting an absent key is idempotent and appends nothing.
	before := c.Applied()
	if cost, err := c.ProposeMetaDelete("topic/events"); err != nil || cost != 0 {
		t.Fatalf("redundant delete: cost=%v err=%v", cost, err)
	}
	if c.Applied() != before {
		t.Fatal("redundant delete appended a log entry")
	}
	// Recreating the same name must replicate again: the tombstone
	// cleared the dedup map, so the second create is a fresh commit.
	if _, err := c.ProposeMeta("topic/events"); err != nil {
		t.Fatalf("recreate: %v", err)
	}
	if !c.MetaCommitted("topic/events") {
		t.Fatal("recreate did not apply")
	}
	if c.Applied() <= before {
		t.Fatal("recreate skipped replication (stale dedup)")
	}
}

func TestDrainCommitsAndExcludesPlacement(t *testing.T) {
	c, _, _ := newTestCluster(t, 5, 21)
	target := (c.Leader() + 2) % 5
	if err := c.DrainNode(target); err != nil {
		t.Fatalf("drain: %v", err)
	}
	v := c.CurrentView()
	if !v.Draining[target] || !v.Alive[target] {
		t.Fatalf("drain state: draining=%v alive=%v", v.Draining[target], v.Alive[target])
	}
	// Ring placement with the cluster's admissibility rule skips it.
	pref := c.ringT.place("k", 5, func(n int) bool {
		return v.Alive[n] && !v.Draining[n]
	})
	for _, n := range pref {
		if n == target {
			t.Fatal("draining node still admissible for placement")
		}
	}
	if err := c.UndrainNode(target); err != nil {
		t.Fatalf("undrain: %v", err)
	}
	if c.CurrentView().Draining[target] {
		t.Fatal("undrain did not commit")
	}
}

func TestNoLeaderWhenMajorityDead(t *testing.T) {
	c, clock, _ := newTestCluster(t, 5, 31)
	// Kill three of five: no quorum can form, so commits must fail no
	// matter how long the survivors campaign.
	killed := 0
	for i := 0; i < 5 && killed < 3; i++ {
		c.KillNode(i)
		killed++
	}
	for i := 0; i < 100; i++ {
		step(c, clock)
	}
	if _, err := c.CommitProduce("t", 0, 0, 1); err == nil {
		t.Fatal("commit succeeded without a quorum of live nodes")
	}
}

func TestLongGapFoldStillDetects(t *testing.T) {
	c, clock, _ := newTestCluster(t, 3, 77)
	victim := c.Leader()
	c.KillNode(victim)
	// Jump far past the fold window in one advance: the pending
	// detection must still fire inside the folded trailing window.
	clock.Advance(5 * time.Minute)
	c.Tick()
	// A few more boundaries let the new leader's dead-proposal commit.
	ok := stepUntil(c, clock, 100, func() bool {
		return c.Leader() >= 0 && c.Leader() != victim && !c.CurrentView().Alive[victim]
	})
	if !ok {
		t.Fatalf("fold hid the failure: leader=%d alive=%v", c.Leader(), c.CurrentView().Alive[victim])
	}
}

func TestStatusSnapshot(t *testing.T) {
	c, _, _ := newTestCluster(t, 3, 1)
	st := c.Status()
	if len(st.Nodes) != 3 {
		t.Fatalf("status nodes = %d", len(st.Nodes))
	}
	if st.Leader != c.Leader() {
		t.Fatalf("status leader %d != %d", st.Leader, c.Leader())
	}
	leaders := 0
	for _, n := range st.Nodes {
		if n.Role == "leader" {
			leaders++
		}
		if !n.Up || !n.Alive {
			t.Fatalf("node %d should be up and alive: %+v", n.ID, n)
		}
	}
	if leaders != 1 {
		t.Fatalf("status shows %d leaders", leaders)
	}
}
