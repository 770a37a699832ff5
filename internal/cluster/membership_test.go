package cluster

import (
	"errors"
	"testing"

	"streamlake/internal/pool"
	"streamlake/internal/sim"
)

// committedThrough reports whether node n has committed every entry
// below the absolute index idx. A membership change applied at idx
// reached n through the log — the only legitimate channel a join or
// removal may arrive through — once this holds.
func committedThrough(c *Cluster, n, idx int) bool {
	return c.Status().Nodes[n].Commit >= idx
}

// TestProposeJoinCommitsThroughLog: a join lands as a committed log
// entry on every member — including the joiner, which only ever hears
// about itself through catch-up and replication — and the view grows by
// exactly one voter.
func TestProposeJoinCommitsThroughLog(t *testing.T) {
	c, clock, _ := newTestCluster(t, 3, 42)
	if err := c.ProposeJoin(3); err != nil {
		t.Fatalf("join: %v", err)
	}
	v := c.CurrentView()
	if v.Nodes != 4 || !v.Alive[3] || v.Joining[3] {
		t.Fatalf("join committed but view disagrees: %+v", v)
	}
	if got := c.Voters(); got != 4 {
		t.Fatalf("voters after join: %d, want 4", got)
	}
	// The join entry is the last one applied.
	joinedBy := c.Applied()
	for n := 0; n < 4; n++ {
		if !stepUntil(c, clock, 100, func() bool { return committedThrough(c, n, joinedBy) }) {
			t.Fatalf("node %d never committed the join entry (index %d)", n, joinedBy-1)
		}
	}
	if st := c.Stats(); st.Joins != 1 {
		t.Fatalf("stats count %d joins, want 1", st.Joins)
	}
}

// TestProposeJoinValidation: dense IDs only, and an id that is already a
// member conflicts rather than double-joining.
func TestProposeJoinValidation(t *testing.T) {
	c, _, _ := newTestCluster(t, 3, 42)
	if err := c.ProposeJoin(1); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("joining an existing id: %v, want ErrNodeExists", err)
	}
	if err := c.ProposeJoin(7); err == nil {
		t.Fatal("out-of-order id joined")
	}
	v := c.CurrentView()
	if v.Nodes != 3 {
		t.Fatalf("rejected joins grew the cluster: %+v", v)
	}
}

// TestProposeJoinNeedsQuorum: a leader cut off from every follower can
// admit a learner but never commit the promotion — the join fails, and
// no committed state changes.
func TestProposeJoinNeedsQuorum(t *testing.T) {
	c, clock, net := newTestCluster(t, 3, 42)
	lead := c.Leader()
	others := []int{}
	for n := 0; n < 3; n++ {
		if n != lead {
			others = append(others, n)
		}
	}
	partitionNodes(net, []int{lead}, others)
	if err := c.ProposeJoin(3); err == nil {
		t.Fatal("join committed without a quorum")
	}
	// The learner may be admitted (it is reachable from the leader), but
	// the promotion must not commit: the node stays in joining state and
	// the voter set is unchanged.
	if v := c.CurrentView(); v.Nodes > 3 && !v.Joining[3] {
		t.Fatalf("join promoted without a quorum: %+v", v)
	}
	if got := c.Voters(); got != 3 {
		t.Fatalf("quorum-less join changed the voter set: %d", got)
	}
	// Heal; whether the parked entry commits through reconciliation or a
	// retry lands it, the cluster must converge on exactly one node 3.
	for _, o := range others {
		net.Heal(nodeEndpoint(lead), nodeEndpoint(o))
		net.Heal(nodeEndpoint(o), nodeEndpoint(lead))
	}
	joined := stepUntil(c, clock, 200, func() bool {
		err := c.ProposeJoin(3)
		if err != nil && !errors.Is(err, ErrNodeExists) {
			return false
		}
		v := c.CurrentView()
		return v.Nodes == 4 && !v.Joining[3]
	})
	if !joined {
		t.Fatal("join never committed after the heal")
	}
}

// TestProposeRemoveDrainsThenTombstones: removal is drain → evacuate →
// committed tombstone. The removed node leaves the voter set, placement
// refuses it, and both membership entries are in the replicated log.
func TestProposeRemoveDrainsThenTombstones(t *testing.T) {
	c, clock, _ := newTestCluster(t, 5, 42)
	victim := -1
	for n := 0; n < 5; n++ {
		if n != c.Leader() {
			victim = n
			break
		}
	}
	before := c.Applied()
	if err := c.ProposeRemove(victim); err != nil {
		t.Fatalf("remove: %v", err)
	}
	v := c.CurrentView()
	if !v.Removed[victim] || v.Alive[victim] || !v.Draining[victim] {
		t.Fatalf("removal committed but view disagrees: %+v", v)
	}
	if got := c.Voters(); got != 4 {
		t.Fatalf("voters after removal: %d, want 4", got)
	}
	c.mu.Lock()
	ok := c.placeOKLocked(victim)
	c.mu.Unlock()
	if ok {
		t.Fatal("placement still admits the removed node")
	}
	// Two entries applied — the leave (draining) and the tombstone
	// (removed) — and the leader has committed both.
	if got := c.Applied(); got != before+2 {
		t.Fatalf("removal applied %d entries, want leave and remove", got-before)
	}
	if !stepUntil(c, clock, 100, func() bool { return committedThrough(c, c.Leader(), before+2) }) {
		t.Fatal("leader never committed the leave and remove entries")
	}
	if st := c.Stats(); st.Removes != 1 {
		t.Fatalf("stats count %d removes, want 1", st.Removes)
	}
	// Idempotent: a second remove of a tombstoned id is a no-op, not a
	// second drain — the stats don't double-count.
	if err := c.ProposeRemove(victim); err != nil {
		t.Fatalf("re-removing a tombstoned node: %v", err)
	}
	if st := c.Stats(); st.Removes != 1 {
		t.Fatalf("double-remove double-counted: %d removes", st.Removes)
	}
}

// TestProposeRemoveGuards: the leader and the voter floor are
// protected, and both refusals leave no partial drain behind.
func TestProposeRemoveGuards(t *testing.T) {
	c, _, _ := newTestCluster(t, 3, 42)
	lead := c.Leader()
	if err := c.ProposeRemove(lead); !errors.Is(err, ErrRemoveLeader) {
		t.Fatalf("removing the leader: %v, want ErrRemoveLeader", err)
	}
	follower := (lead + 1) % 3
	if err := c.ProposeRemove(follower); !errors.Is(err, ErrTooFewVoters) {
		t.Fatalf("removing below the floor: %v, want ErrTooFewVoters", err)
	}
	v := c.CurrentView()
	for n := 0; n < 3; n++ {
		if v.Draining[n] || v.Leaving[n] || v.Removed[n] {
			t.Fatalf("refused removal left node %d half-drained: %+v", n, v)
		}
	}
}

// TestJoinedNodeIsAFullVoter: after a join the grown cluster survives
// losing its old leader — four voters tolerate one death, and the
// joined node is eligible to carry elections like any founder.
func TestJoinedNodeIsAFullVoter(t *testing.T) {
	c, clock, _ := newTestCluster(t, 3, 42)
	if err := c.ProposeJoin(3); err != nil {
		t.Fatalf("join: %v", err)
	}
	old := c.Leader()
	if err := c.KillNode(old); err != nil {
		t.Fatalf("kill: %v", err)
	}
	elected := stepUntil(c, clock, 400, func() bool {
		l := c.Leader()
		return l >= 0 && l != old
	})
	if !elected {
		t.Fatal("grown cluster never re-elected after losing its leader")
	}
	for term, wins := range c.LeaderCountByTerm() {
		if wins > 1 {
			t.Fatalf("term %d elected %d leaders", term, wins)
		}
	}
}

// domainOfDisk reads disk d's owning node from the first attached
// pool's view-versioned disk→node table.
func domainOfDisk(c *Cluster, d int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pools[0].diskNode[d]
}

// TestPostJoinDiskAttribution: the regression the view-versioned
// disk→node table exists for. A joined node's disks sit past the birth
// range, where the old i%N rule would alias them onto founding domains;
// the table must attribute them to the joiner instead.
func TestPostJoinDiskAttribution(t *testing.T) {
	c, _, _ := newTestCluster(t, 5, 42)
	clock := sim.NewClock()
	p := pool.New("ssd", clock, sim.NVMeSSD, 10, 0)
	c.AttachPool(p, nil)
	for i := 0; i < 10; i++ {
		if got, want := domainOfDisk(c, i), i%5; got != want {
			t.Fatalf("birth disk %d attributed to node %d, want %d", i, got, want)
		}
	}
	if err := c.ProposeJoin(5); err != nil {
		t.Fatalf("join: %v", err)
	}
	if p.DiskCount() <= 10 {
		t.Fatal("join attached no disks for the new node")
	}
	for i := 10; i < p.DiskCount(); i++ {
		got := domainOfDisk(c, i)
		if got == i%5 && got != 5 {
			t.Fatalf("joined disk %d aliased onto founding domain %d by the i%%N rule", i, got)
		}
		if got != 5 {
			t.Fatalf("joined disk %d attributed to node %d, want 5", i, got)
		}
	}
	// The view's table agrees with the accessor.
	v := c.CurrentView()
	table := v.DiskNode["ssd"]
	if len(table) != p.DiskCount() {
		t.Fatalf("view table covers %d disks, pool has %d", len(table), p.DiskCount())
	}
	for i := 10; i < len(table); i++ {
		if table[i] != 5 {
			t.Fatalf("view table attributes joined disk %d to node %d", i, table[i])
		}
	}
}
