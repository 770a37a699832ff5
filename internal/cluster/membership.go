package cluster

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"streamlake/internal/pool"
	"streamlake/internal/sim"
)

// Membership changes replicate through the same Raft-lite metadata log
// as produce records — there is no ground-truth side channel. A join
// runs in two steps: the new node is admitted as a non-voting learner
// and caught up on the committed log (one bulk transfer over the
// NetPlane, so a partition blocks admission before any state mutates),
// then a single committed "join" config entry promotes it to voter,
// inserts its ring arcs, and triggers the bounded arc migration. A
// removal is the mirror image: a committed "leave" entry drains the
// node and relocates its slices off, then a committed "remove"
// tombstone drops it from the ring, the voter set, and the heartbeat
// schedule. Node IDs are never reused.

// Errors surfaced by membership changes.
var (
	// ErrNodeExists rejects joining an ID that is already a full member
	// or a tombstone.
	ErrNodeExists = errors.New("cluster: node already exists")
	// ErrRemoveLeader rejects removing the current leader — demote it
	// first (kill or wait out an election) so the removal can commit
	// through a surviving leader.
	ErrRemoveLeader = errors.New("cluster: cannot remove the current leader")
	// ErrTooFewVoters keeps the voter set at three or more: below that a
	// single failure stalls the metadata plane.
	ErrTooFewVoters = errors.New("cluster: removal would leave fewer than 3 voters")
	// ErrNodeHoldsCopies defers a tombstone, which fails the node's disks
	// for good, while they still hold copies; a retry evacuates again.
	ErrNodeHoldsCopies = errors.New("cluster: leaving node still holds copies")
)

// JoinReport records what one committed join actually moved — the
// evidence for the movement bound.
type JoinReport struct {
	Node        int
	MovedBytes  int64 // stale bytes scheduled onto the new node (re-replication work)
	MovedSlices int   // placement-group copies relocated
	BoundBytes  int64 // (live/(N+1))·(1+moveSlack) at join time
	Skipped     int   // groups the ring wanted moved but the bound (or a missing victim) deferred
}

// LastJoin returns the most recent committed join's movement report.
func (c *Cluster) LastJoin() JoinReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastJoin
}

// ProposeJoin admits a new node (IDs are dense: the next valid id is
// Nodes()) or retries a stuck admission for an existing learner. The
// learner first receives the leader's committed log as one bulk
// transfer; the promotion then commits through the replicated log like
// any other entry — no quorum, no join.
func (c *Cluster) ProposeJoin(node int) error {
	now := c.clock.Now()
	var effects []func()
	c.mu.Lock()
	if node < 0 || node > len(c.nodes) {
		c.mu.Unlock()
		return fmt.Errorf("cluster: join id %d out of order (next is %d)", node, len(c.nodes))
	}
	if node < len(c.nodes) && !c.joining[node] {
		c.mu.Unlock()
		return ErrNodeExists
	}
	lead := c.currentLeaderLocked()
	if lead == nil {
		c.mu.Unlock()
		return ErrNoLeader
	}
	if node == len(c.nodes) {
		// Learner catch-up: ship the leader's log before admitting the
		// node, with the applied state below the shared base sized as the
		// entries compaction dropped. A partitioned or lossy path fails
		// here, before any cluster state changes.
		size := entryOverhead + c.dropped
		for _, e := range lead.log {
			size += e.size()
		}
		if _, err := c.net.Deliver(lead.ep, nodeEndpoint(node), size); err != nil {
			c.mu.Unlock()
			return fmt.Errorf("cluster: learner %d catch-up: %w", node, err)
		}
		// Same seeded jitter derivation as New: a cluster grown to N
		// places its timers exactly like one born at N.
		rng := sim.NewRNG(c.cfg.Seed ^ (0x636c7573746572 + uint64(node)*0x9E3779B9))
		jitter := time.Duration(rng.Int63n(int64(electionTimeout)))
		ns := &nodeState{
			id:              node,
			ep:              nodeEndpoint(node),
			up:              true,
			learner:         true,
			lastHeard:       make([]time.Duration, node+1),
			votedFor:        -1,
			electionTimeout: electionTimeout + jitter,
			lastLeaderBeat:  now,
			lastElection:    now,
		}
		for i := range ns.lastHeard {
			ns.lastHeard[i] = now
		}
		for _, m := range c.nodes {
			m.lastHeard = append(m.lastHeard, now)
		}
		c.nodes = append(c.nodes, ns)
		c.alive = append(c.alive, true)
		c.draining = append(c.draining, false)
		c.joining = append(c.joining, true)
		c.leaving = append(c.leaving, false)
		c.removed = append(c.removed, false)
	}
	ns := c.nodes[node]
	ns.term = lead.term
	c.reconcileLocked(lead, ns)
	_, err := c.proposeLocked(Entry{Kind: "member", Data: strconv.Itoa(node) + sep + "join"}, &effects)
	c.storeViewLocked(now)
	c.mu.Unlock()
	c.runEffects(effects)
	return err
}

// ProposeRemove retires a node: a committed "leave" entry drains it and
// relocates its slices off (the evacuation side effect), then a
// committed "remove" tombstone drops it permanently. The tombstone
// waits until the node's disks hold no copy (ErrNodeHoldsCopies). Safe
// to retry — a half-done removal (leave committed, remove not) evacuates
// again and resumes at the tombstone.
func (c *Cluster) ProposeRemove(node int) error {
	now := c.clock.Now()
	var effects []func()
	c.mu.Lock()
	if node < 0 || node >= len(c.nodes) {
		c.mu.Unlock()
		return fmt.Errorf("cluster: no node %d", node)
	}
	if c.removed[node] {
		c.mu.Unlock()
		return nil
	}
	if c.joining[node] {
		c.mu.Unlock()
		return fmt.Errorf("cluster: node %d is still joining", node)
	}
	lead := c.currentLeaderLocked()
	if lead == nil {
		c.mu.Unlock()
		return ErrNoLeader
	}
	if lead.id == node {
		c.mu.Unlock()
		return ErrRemoveLeader
	}
	if c.votersLocked() <= 3 {
		c.mu.Unlock()
		return ErrTooFewVoters
	}
	if !c.leaving[node] {
		_, err := c.proposeLocked(Entry{Kind: "member", Data: strconv.Itoa(node) + sep + "leave"}, &effects)
		c.storeViewLocked(now)
		c.mu.Unlock()
		c.runEffects(effects)
		if err != nil {
			return err
		}
		effects = nil
	} else {
		c.mu.Unlock()
		c.evacuate(node)
	}
	c.mu.Lock()
	pools := append([]attachedPool(nil), c.pools...)
	c.mu.Unlock()
	for _, ap := range pools {
		if ap.p.DomainSlices()[node] > 0 {
			return ErrNodeHoldsCopies
		}
	}
	c.mu.Lock()
	_, err := c.proposeLocked(Entry{Kind: "member", Data: strconv.Itoa(node) + sep + "remove"}, &effects)
	c.storeViewLocked(now)
	c.mu.Unlock()
	c.runEffects(effects)
	return err
}

// nodeJoined runs the committed-join side effects: the new node's disks
// join every attached pool, the disk→node table grows, and the ring's
// arc migration relocates at most (live/(N+1))·(1+moveSlack) bytes of
// placement-group copies onto the new node. Relocated copies are marked
// stale at their new home, so the ordinary repair plane re-replicates
// them with real, charged I/O — "bytes moved" is re-replication work,
// not a teleport.
func (c *Cluster) nodeJoined(node int) {
	c.mu.Lock()
	poolCount := len(c.pools)
	c.mu.Unlock()
	newDisks := make([]map[pool.DiskID]bool, poolCount)
	for idx := 0; idx < poolCount; idx++ {
		c.mu.Lock()
		ap := c.pools[idx]
		c.mu.Unlock()
		if ap.perNode <= 0 {
			continue
		}
		ids := ap.p.AddDisks(ap.perNode, node)
		set := make(map[pool.DiskID]bool, len(ids))
		for _, d := range ids {
			set[d] = true
		}
		newDisks[idx] = set
		c.mu.Lock()
		for range ids {
			c.pools[idx].diskNode = append(c.pools[idx].diskNode, node)
		}
		c.mu.Unlock()
	}

	c.mu.Lock()
	pools := append([]attachedPool(nil), c.pools...)
	recs := append([]placementRec(nil), c.placements...)
	var total int64
	for _, ap := range pools {
		total += ap.p.Stats().Live
	}
	nNew := len(c.ringT.nodes())
	if nNew <= 0 {
		nNew = 1
	}
	rep := JoinReport{
		Node:       node,
		BoundBytes: int64(float64(total) / float64(nNew) * (1 + moveSlack)),
	}
	type moveOp struct {
		idx int // pool index (target disk set)
		id  pool.SliceID
	}
	var ops []moveOp
	var est int64
	for _, rec := range recs {
		width := len(rec.slices)
		pref := c.ringT.place(rec.key, width, c.placeOKLocked)
		if !containsInt(pref, node) {
			continue
		}
		idx := -1
		for i, ap := range pools {
			if ap.p == rec.p {
				idx = i
				break
			}
		}
		if idx < 0 || newDisks[idx] == nil {
			continue
		}
		onNew, stale := false, false
		curNodes := make([]int, width)
		for i, id := range rec.slices {
			d, err := rec.p.SliceDisk(id)
			if err != nil {
				stale = true // group destroyed or migrated to another pool
				break
			}
			curNodes[i] = diskNodeOf(pools[idx], d)
			if curNodes[i] == node {
				onNew = true
			}
		}
		if stale || onNew {
			continue
		}
		vi := -1
		for i := width - 1; i >= 0; i-- {
			if curNodes[i] >= 0 && !containsInt(pref, curNodes[i]) {
				vi = i
				break
			}
		}
		if vi < 0 {
			rep.Skipped++
			continue
		}
		live := rec.p.SliceLive(rec.slices[vi])
		if live < 0 {
			continue
		}
		if est+live > rep.BoundBytes {
			rep.Skipped++
			continue
		}
		est += live
		ops = append(ops, moveOp{idx: idx, id: rec.slices[vi]})
	}
	c.mu.Unlock()

	// A moved copy arrives empty, so one its group cannot spare stays.
	mgrs := distinctManagers(pools)
	for _, op := range ops {
		spared := true
		for _, mgr := range mgrs {
			spared = spared && mgr.Spares(pools[op.idx].p, op.id)
		}
		if !spared {
			rep.Skipped++
			continue
		}
		if _, err := pools[op.idx].p.RelocateTo(op.id, newDisks[op.idx]); err == nil {
			rep.MovedSlices++
		}
	}
	// Every copy now sitting on the new node's disks arrived empty:
	// mark it stale so repair rebuilds it from its group peers.
	for idx, set := range newDisks {
		if len(set) == 0 {
			continue
		}
		for _, mgr := range mgrs {
			rep.MovedBytes += mgr.MarkDisksStale(pools[idx].p, set, false)
		}
	}

	c.mu.Lock()
	c.stats.JoinMovedBytes += rep.MovedBytes
	c.lastJoin = rep
	cb := c.onMember
	c.storeViewLocked(c.clock.Now())
	c.mu.Unlock()
	if cb != nil {
		cb(node, true)
	}
}

// nodeLeaving runs the committed-leave side effects: every placement
// copy on the leaving node relocates to a surviving domain (stale at
// its new home, repaired from group peers) and its stream workers hand
// off.
func (c *Cluster) nodeLeaving(node int) {
	c.evacuate(node)
	c.mu.Lock()
	cb := c.onMember
	c.mu.Unlock()
	if cb != nil {
		cb(node, false)
	}
}

// evacuate relocates every placement copy off node's disks, in every
// attached pool, and counts the bytes queued for re-replication.
func (c *Cluster) evacuate(node int) {
	c.mu.Lock()
	pools := append([]attachedPool(nil), c.pools...)
	c.mu.Unlock()
	var moved int64
	mgrs := distinctManagers(pools)
	for _, ap := range pools {
		disks := nodeDisksOf(ap, node)
		if len(disks) == 0 {
			continue
		}
		for _, mgr := range mgrs {
			_, b := mgr.EvacuateDisks(ap.p, disks)
			moved += b
		}
	}
	c.mu.Lock()
	c.stats.EvacuatedBytes += moved
	c.storeViewLocked(c.clock.Now())
	c.mu.Unlock()
}

// nodeRemoved runs the tombstone side effects: the departed node's
// disks fail permanently so no allocation or read ever lands there
// again. Its slices were already evacuated by the leave leg.
func (c *Cluster) nodeRemoved(node int) {
	c.mu.Lock()
	pools := append([]attachedPool(nil), c.pools...)
	c.mu.Unlock()
	for _, ap := range pools {
		for _, d := range sortedDiskIDs(nodeDisksOf(ap, node)) {
			ap.p.FailDisk(d)
		}
	}
	c.mu.Lock()
	c.storeViewLocked(c.clock.Now())
	c.mu.Unlock()
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
