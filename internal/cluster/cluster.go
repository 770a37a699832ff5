// Package cluster turns the single-process reproduction into a
// multi-node one (Section V's deployment shape: StreamLake runs on 3+
// node converged clusters). A Node bundles a share of every storage
// pool (its failure domain), a stream-worker share, and a metadata-log
// participant. Three mechanisms cooperate so that killing any minority
// of nodes — including the metadata leader — loses no acknowledged
// write:
//
//   - a virtual-time heartbeat failure detector with seeded timeouts
//     marks unreachable nodes suspect, then dead;
//   - a Raft-lite replicated metadata log (metalog.go) commits
//     membership changes and produce records by majority, so a minority
//     partition can elect whatever it likes but can never acknowledge;
//   - consistent-hash placement (ring.go) plus the pool's failure
//     domains keep a placement group's copies on distinct nodes, and a
//     rebalancer re-replicates a dead node's slices within a bounded
//     virtual-time budget.
//
// Every inter-node message rides the faults.NetPlane, so the existing
// drop/delay/partition machinery shapes cluster behavior for free, and
// everything draws from seeded RNGs — the whole failover drill replays
// bit-identically.
package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"streamlake/internal/faults"
	"streamlake/internal/obs"
	"streamlake/internal/plog"
	"streamlake/internal/pool"
	"streamlake/internal/repair"
	"streamlake/internal/sim"
)

// Config sizes the cluster.
type Config struct {
	// Nodes is the birth cluster size (default 3). Disk i of every
	// attached pool initially belongs to node i % Nodes; after runtime
	// joins the view's disk→node table is the only truth (new disks
	// belong to the node that joined with them, not to i % birth-N).
	Nodes int
	// Seed derives every per-node RNG (election-timeout jitter).
	Seed uint64
}

// The failure detector's and elections' timers, all virtual time.
const (
	// heartbeatEvery is the all-to-all heartbeat period.
	heartbeatEvery = time.Millisecond
	// suspectAfter marks a silent node suspect: placement avoids it,
	// hedged reads and scrub skip its copies.
	suspectAfter = 4 * time.Millisecond
	// deadAfter lets the leader propose a silent node dead, triggering
	// re-replication of its slices.
	deadAfter = 10 * time.Millisecond
	// electionTimeout is the base follower patience before campaigning;
	// each node adds seeded jitter in [0, electionTimeout) so timers
	// stay staggered.
	electionTimeout = 5 * time.Millisecond
)

// moveSlack bounds data movement on a join: growing N→N+1 may move at
// most (1/(N+1))·(1+moveSlack) of the live bytes. Consistent hashing
// keeps the expected movement at 1/(N+1); the slack absorbs sampling
// variance at small N.
const moveSlack = 0.5

// nodeState is one node's cluster-visible state: process liveness, the
// failure detector's receive timestamps, and its metadata-log
// participant state.
type nodeState struct {
	id      int
	up      bool // process alive (KillNode/ReviveNode toggle this)
	learner bool // catching up; replicated to but not counted for quorum
	removed bool // tombstoned by a committed remove; never returns

	ep        string          // nodeEndpoint(id), named once
	lastHeard []time.Duration // [sender] when a heartbeat last arrived

	role            Role
	term            int64
	votedFor        int
	log             []Entry // entries from the cluster's base index on
	commit          int     // absolute: entries below it are committed
	end             int     // absolute log length when removed; its log is released
	lastLeaderBeat  time.Duration
	lastElection    time.Duration
	electionTimeout time.Duration // fixed seeded jitter, staggered per node
}

// View is the lock-free liveness snapshot the pool avoid-hooks read on
// every allocation and hedged read. Alive is the committed membership;
// Suspect is the detector's pre-commit verdict. Version increments on
// every membership or topology change, and DiskNode is the
// view-versioned disk→node assignment (per pool name) that replaces the
// static i%N rule once clusters grow or shrink at runtime.
type View struct {
	Nodes    int // current node-ID space (birth nodes + joins, tombstones included)
	Alive    []bool
	Suspect  []bool
	Draining []bool
	Joining  []bool // learner admitted, promotion not yet committed
	Leaving  []bool // leave committed, tombstone not yet committed
	Removed  []bool // tombstoned
	Leader   int    // -1 when no live leader
	Term     int64
	Version  int64
	DiskNode map[string][]int // pool name → disk index → owning node
}

// Stats counts cluster-plane activity.
type Stats struct {
	Elections       int64
	Commits         int64 // entries a replication round committed; a lone voter's show only in Applied
	CommitFails     int64 // proposals that found no leader or no quorum
	HeartbeatsSent  int64
	HeartbeatsLost  int64
	NodesKilled     int64
	NodesRevived    int64
	StaleMarkedByte int64 // bytes marked stale by committed death verdicts
	Joins           int64 // committed node joins
	Removes         int64 // committed node removals
	JoinMovedBytes  int64 // live bytes scheduled to move by join arc migration
	EvacuatedBytes  int64 // live bytes relocated off leaving nodes
	Diverged        int64 // committed entries that differed between nodes when dropped
}

type attachedPool struct {
	p        *pool.Pool
	mgr      *plog.Manager // nil for pools without a plog manager (HDD tier shares the SSD manager's logs)
	diskNode []int         // disk index → owning node (the view-versioned table)
	perNode  int           // disks contributed per joining node
}

// placementRec remembers one placement-group decision so join-time arc
// migration can recompute where the ring now wants each group without a
// ground-truth side channel: the key is the same one the placer hashed.
type placementRec struct {
	p      *pool.Pool
	key    string
	slices []pool.SliceID
}

// Cluster is the membership, placement, and metadata-consensus plane
// over the existing pools and services.
type Cluster struct {
	cfg   Config
	clock *sim.Clock
	net   *faults.NetPlane

	mu          sync.Mutex
	nodes       []*nodeState
	alive       []bool // committed membership
	draining    []bool
	joining     []bool // learner exists, join entry not yet applied
	leaving     []bool // leave entry applied, remove entry not yet
	removed     []bool // remove tombstone applied
	lastTick    time.Duration
	applied     int   // absolute: entries below it are applied
	base        int   // absolute index of every live log's first entry
	baseTerm    int64 // term of the entry just below base (0 at birth)
	walkSteps   int64 // entries reconcileLocked walked back over; only its cost guard reads it
	dropped     int64 // modelled bytes of every entry compaction dropped; a joiner's catch-up ships them as state
	produced    map[string][]offsetRuns
	meta        map[string]bool
	termWins    map[int64]int
	placeSeq    map[string]uint64
	pools       []attachedPool
	repairs     []*repair.Service
	ringT       *ring
	placements  []placementRec
	placeKept   int // len(placements) after its last sweep
	stats       Stats
	lastJoin    JoinReport
	viewVersion int64
	onKill      func(node int, up bool)
	onMember    func(node int, serving bool)

	view atomic.Pointer[View]
}

// New builds a cluster plane over the shared clock and network fault
// plane. Pools, repair services, and callbacks attach afterwards;
// Bootstrap then elects the first leader.
func New(cfg Config, clock *sim.Clock, net *faults.NetPlane) *Cluster {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 3
	}
	c := &Cluster{
		cfg:      cfg,
		clock:    clock,
		net:      net,
		produced: make(map[string][]offsetRuns),
		meta:     make(map[string]bool),
		termWins: make(map[int64]int),
		placeSeq: make(map[string]uint64),
		ringT:    newRing(cfg.Nodes),
	}
	for i := 0; i < cfg.Nodes; i++ {
		rng := sim.NewRNG(cfg.Seed ^ (0x636c7573746572 + uint64(i)*0x9E3779B9))
		jitter := time.Duration(rng.Int63n(int64(electionTimeout)))
		c.nodes = append(c.nodes, &nodeState{
			id:              i,
			ep:              nodeEndpoint(i),
			up:              true,
			lastHeard:       make([]time.Duration, cfg.Nodes),
			votedFor:        -1,
			electionTimeout: electionTimeout + jitter,
		})
		c.alive = append(c.alive, true)
		c.draining = append(c.draining, false)
		c.joining = append(c.joining, false)
		c.leaving = append(c.leaving, false)
		c.removed = append(c.removed, false)
	}
	c.storeViewLocked(clock.Now())
	return c
}

// Nodes returns the current node-ID space: birth nodes plus every
// runtime join, tombstoned removals included (IDs are never reused).
func (c *Cluster) Nodes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.nodes)
}

// Voters counts the quorum denominator: full members, excluding
// learners still catching up and removed tombstones.
func (c *Cluster) Voters() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.votersLocked()
}

// AttachPool registers a storage pool with the cluster: disk i joins
// node i%N's failure domain at birth (the seed of the view's disk→node
// table — later joins append their own disks to it), the allocation
// veto excludes suspect, dead, draining, and removed nodes, and (when
// mgr is non-nil) new placement groups route through the
// consistent-hash ring.
func (c *Cluster) AttachPool(p *pool.Pool, mgr *plog.Manager) {
	n := c.cfg.Nodes
	domains := make([]int, p.DiskCount())
	for i := range domains {
		domains[i] = i % n
	}
	p.SetDomains(domains)
	name := p.Name()
	p.SetAvoid(func(d pool.DiskID) bool {
		v := c.view.Load()
		node := -1
		if table := v.DiskNode[name]; int(d) < len(table) {
			node = table[d]
		} else {
			node = int(d) % v.Nodes
		}
		if node < 0 || node >= len(v.Alive) {
			return true
		}
		return !v.Alive[node] || v.Suspect[node] || v.Draining[node] ||
			(node < len(v.Removed) && v.Removed[node])
	})
	c.mu.Lock()
	c.pools = append(c.pools, attachedPool{
		p: p, mgr: mgr,
		diskNode: append([]int(nil), domains...),
		perNode:  p.DiskCount() / n,
	})
	c.storeViewLocked(c.clock.Now())
	c.mu.Unlock()
	// The placer only attaches to the manager's own allocation pool; a
	// secondary pool (the HDD tier sharing the SSD manager's logs) still
	// registers for stale-marking and backlog accounting above.
	if mgr != nil && mgr.Pool() == p {
		mgr.SetPlacer(func(width int) ([]*pool.Slice, error) {
			c.mu.Lock()
			c.placeSeq[name]++
			key := name + "/" + strconv.FormatUint(c.placeSeq[name], 10)
			pref := c.ringT.place(key, width, c.placeOKLocked)
			c.mu.Unlock()
			sl, err := p.AllocGroupIn(pref, width)
			if err == nil && len(sl) > 0 {
				ids := make([]pool.SliceID, len(sl))
				for i, s := range sl {
					ids[i] = s.ID
				}
				c.mu.Lock()
				c.placements = append(c.placements, placementRec{p: p, key: key, slices: ids})
				// Once the list doubles, drop the groups their pool no
				// longer holds (destroyed or migrated; join migration
				// skips them anyway): the records stay within twice the
				// live groups, at a constant amortised cost.
				if len(c.placements) >= 2*c.placeKept+64 {
					c.placements = slices.DeleteFunc(c.placements, func(r placementRec) bool {
						_, err := r.p.SliceDisk(r.slices[0])
						return err != nil
					})
					c.placeKept = len(c.placements)
				}
				c.mu.Unlock()
			}
			return sl, err
		})
	}
}

// placeOKLocked is the placer's admissibility rule: committed-alive,
// not draining (which covers leaving nodes), not removed.
func (c *Cluster) placeOKLocked(node int) bool {
	return node >= 0 && node < len(c.alive) &&
		c.alive[node] && !c.draining[node] && !c.removed[node]
}

// AttachRepair registers a repair service the rebalancer drives.
func (c *Cluster) AttachRepair(r *repair.Service) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.repairs = append(c.repairs, r)
}

// OnKill installs the process-death callback, invoked with up=false the
// moment a node is killed (before any detection) and up=true on revival
// — the wiring layer uses it to partition the dead node's client links.
func (c *Cluster) OnKill(fn func(node int, up bool)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onKill = fn
}

// OnMembership installs the committed-membership callback: serving=false
// when a node's death or drain commits (the stream service reassigns
// its workers' streams), serving=true when it rejoins.
func (c *Cluster) OnMembership(fn func(node int, serving bool)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onMember = fn
}

// nodeDisksOf lists a node's disks in one pool via the attached pool's
// disk→node table — never the birth i%N rule, which would alias a
// joined node's disks onto old domains.
func nodeDisksOf(ap attachedPool, node int) map[pool.DiskID]bool {
	disks := make(map[pool.DiskID]bool)
	for i, n := range ap.diskNode {
		if n == node {
			disks[pool.DiskID(i)] = true
		}
	}
	return disks
}

// nodeDeclaredDead runs the committed-death side effects: every copy on
// the dead node's disks is marked fully stale (the re-replication work
// queue) and the membership callback reassigns its stream workers.
func (c *Cluster) nodeDeclaredDead(node int) {
	c.mu.Lock()
	pools := append([]attachedPool(nil), c.pools...)
	cb := c.onMember
	c.mu.Unlock()
	var marked int64
	for _, ap := range pools {
		if ap.mgr == nil {
			continue
		}
		marked += ap.mgr.MarkDisksStale(ap.p, nodeDisksOf(ap, node), true)
	}
	c.mu.Lock()
	c.stats.StaleMarkedByte += marked
	c.mu.Unlock()
	if cb != nil {
		cb(node, false)
	}
}

func (c *Cluster) nodeDeclaredAlive(node int, serving bool) {
	c.mu.Lock()
	pools := append([]attachedPool(nil), c.pools...)
	cb := c.onMember
	c.mu.Unlock()
	// The node is back with its disks, and with the copies on them.
	for _, ap := range pools {
		if ap.mgr != nil {
			ap.mgr.Reached(ap.p, nodeDisksOf(ap, node))
		}
	}
	if cb != nil && serving {
		cb(node, true)
	}
}

func (c *Cluster) membershipChanged(node int, serving bool) {
	c.mu.Lock()
	cb := c.onMember
	c.mu.Unlock()
	if cb != nil {
		cb(node, serving)
	}
}

func (c *Cluster) runEffects(effects []func()) {
	for _, fn := range effects {
		fn()
	}
}

// KillNode kills a node's process: its heartbeats stop, its disks fail
// in every attached pool (degraded writes start recording stale copies
// immediately), and its client links drop via the OnKill callback. The
// failure detector, membership commit, and rebalancer take it from
// there.
func (c *Cluster) KillNode(node int) error {
	c.mu.Lock()
	if node < 0 || node >= len(c.nodes) {
		c.mu.Unlock()
		return fmt.Errorf("cluster: no node %d", node)
	}
	n := c.nodes[node]
	if n.removed {
		c.mu.Unlock()
		return fmt.Errorf("cluster: node %d was removed", node)
	}
	if !n.up {
		c.mu.Unlock()
		return nil
	}
	n.up = false
	c.stats.NodesKilled++
	pools := append([]attachedPool(nil), c.pools...)
	cb := c.onKill
	c.mu.Unlock()
	for _, ap := range pools {
		for _, d := range sortedDiskIDs(nodeDisksOf(ap, node)) {
			ap.p.FailDisk(d)
		}
	}
	if cb != nil {
		cb(node, false)
	}
	return nil
}

// ReviveNode restarts a killed node: disks revive (their copies are
// still stale until repair catches them up), heartbeats resume, and the
// leader proposes the node alive once it hears from it. The node's
// metadata log, term, and votedFor survive the restart — they are its
// durable state. votedFor in particular MUST persist: a node that voted
// in term T, died, and revived with votedFor reset could vote again in
// T, electing two leaders for one term.
func (c *Cluster) ReviveNode(node int) error {
	now := c.clock.Now()
	c.mu.Lock()
	if node < 0 || node >= len(c.nodes) {
		c.mu.Unlock()
		return fmt.Errorf("cluster: no node %d", node)
	}
	n := c.nodes[node]
	if n.removed {
		c.mu.Unlock()
		return fmt.Errorf("cluster: node %d was removed", node)
	}
	if n.up {
		c.mu.Unlock()
		return nil
	}
	n.up = true
	n.role = Follower
	n.lastLeaderBeat = now
	n.lastElection = now
	for i := range n.lastHeard {
		n.lastHeard[i] = now
	}
	for _, m := range c.nodes {
		if m.up {
			m.lastHeard[node] = now
		}
	}
	c.stats.NodesRevived++
	pools := append([]attachedPool(nil), c.pools...)
	cb := c.onKill
	c.mu.Unlock()
	for _, ap := range pools {
		for _, d := range sortedDiskIDs(nodeDisksOf(ap, node)) {
			ap.p.ReviveDisk(d)
		}
	}
	if cb != nil {
		cb(node, true)
	}
	return nil
}

// DrainNode commits a drain record: the node keeps serving reads and
// consensus but takes no new placements and its stream workers hand
// off. Fails when the metadata log cannot commit.
func (c *Cluster) DrainNode(node int) error {
	return c.proposeMember(node, "drain")
}

// UndrainNode reverses DrainNode.
func (c *Cluster) UndrainNode(node int) error {
	return c.proposeMember(node, "undrain")
}

func (c *Cluster) proposeMember(node int, status string) error {
	c.mu.Lock()
	if node < 0 || node >= len(c.nodes) {
		c.mu.Unlock()
		return fmt.Errorf("cluster: no node %d", node)
	}
	if c.nodes[node].removed {
		c.mu.Unlock()
		return fmt.Errorf("cluster: node %d was removed", node)
	}
	var effects []func()
	_, err := c.proposeLocked(Entry{Kind: "member", Data: strconv.Itoa(node) + sep + status}, &effects)
	now := c.clock.Now()
	c.storeViewLocked(now)
	c.mu.Unlock()
	c.runEffects(effects)
	return err
}

// Leader returns the current live leader's node ID, or -1.
func (c *Cluster) Leader() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if lead := c.currentLeaderLocked(); lead != nil {
		return lead.id
	}
	return -1
}

// CurrentView returns the latest liveness snapshot (New stores the
// first).
func (c *Cluster) CurrentView() View { return *c.view.Load() }

// Stats snapshots cluster-plane counters.
func (c *Cluster) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Applied reports how many metadata-log entries have been applied.
func (c *Cluster) Applied() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.applied
}

// storeViewLocked publishes the lock-free liveness snapshot. Suspicion
// comes from the live leader's detector when one exists (the verdict
// that actually drives membership proposals); leaderless interregna
// fall back to "no live node heard it recently".
func (c *Cluster) storeViewLocked(now time.Duration) {
	c.viewVersion++
	v := &View{
		Nodes:    len(c.nodes),
		Alive:    append([]bool(nil), c.alive...),
		Draining: append([]bool(nil), c.draining...),
		Joining:  append([]bool(nil), c.joining...),
		Leaving:  append([]bool(nil), c.leaving...),
		Removed:  append([]bool(nil), c.removed...),
		Suspect:  make([]bool, len(c.nodes)),
		Leader:   -1,
		Version:  c.viewVersion,
	}
	if len(c.pools) > 0 {
		v.DiskNode = make(map[string][]int, len(c.pools))
		for _, ap := range c.pools {
			v.DiskNode[ap.p.Name()] = append([]int(nil), ap.diskNode...)
		}
	}
	lead := c.currentLeaderLocked()
	if lead != nil {
		v.Leader = lead.id
		v.Term = lead.term
	}
	// Suspicion deliberately ignores ground-truth process liveness: the
	// view only knows what heartbeats revealed, so a freshly killed
	// node stays unsuspected until its silence crosses SuspectAfter.
	for j := range c.nodes {
		if lead != nil {
			if j != lead.id {
				v.Suspect[j] = now-lead.lastHeard[j] > suspectAfter
			}
			continue
		}
		heard := false
		for _, m := range c.nodes {
			if m.up && m.id != j && now-m.lastHeard[j] <= suspectAfter {
				heard = true
				break
			}
		}
		v.Suspect[j] = !heard
	}
	c.view.Store(v)
}

// Tick advances the cluster plane to the clock's current virtual time,
// replaying every heartbeat boundary since the last call: all-to-all
// detector heartbeats (each riding the NetPlane), leader beats,
// election timers, and the leader's membership proposals. Call it after
// advancing the clock; it never advances the clock itself.
//
// A gap much longer than the detector's full reaction window (a chaos
// schedule jumping minutes ahead) is folded: link state is refreshed
// optimistically for live senders to the window's start and only the
// trailing window is simulated boundary by boundary. Killed nodes'
// timestamps are left old, so pending detections still fire inside the
// window — the fold bounds the work without hiding failures.
func (c *Cluster) Tick() {
	now := c.clock.Now()
	var effects []func()
	c.mu.Lock()
	hb := heartbeatEvery
	window := 4 * (deadAfter + 2*electionTimeout)
	if now-c.lastTick > window {
		start := now - window
		lead := c.currentLeaderLocked()
		for _, n := range c.nodes {
			if !n.up {
				continue
			}
			for _, m := range c.nodes {
				if m == n || !m.up {
					continue
				}
				if m.lastHeard[n.id] < start {
					m.lastHeard[n.id] = start
				}
			}
			if lead != nil && n.lastLeaderBeat < start {
				n.lastLeaderBeat = start
			}
			if n.lastElection < start {
				n.lastElection = start
			}
		}
		c.lastTick = start
	}
	for t := c.lastTick - c.lastTick%hb + hb; t <= now; t += hb {
		c.boundaryLocked(t, &effects)
	}
	// Leader beats carried the commit index: drop what all now hold.
	c.compactLocked()
	c.lastTick = now
	c.storeViewLocked(now)
	c.mu.Unlock()
	c.runEffects(effects)
}

// boundaryLocked runs one heartbeat boundary: detector heartbeats with
// piggybacked terms and leader beats, then due elections, then the
// leader's membership proposals — all in node-ID order so the schedule
// is a pure function of (seed, event sequence).
func (c *Cluster) boundaryLocked(t time.Duration, effects *[]func()) {
	for _, i := range c.nodes {
		if !i.up {
			continue
		}
		isLeader := i.role == Leader
		if isLeader {
			i.lastLeaderBeat = t
		}
		for _, j := range c.nodes {
			if j == i || !j.up {
				continue
			}
			c.stats.HeartbeatsSent++
			if _, err := c.net.Deliver(i.ep, j.ep, heartbeatBytes); err != nil {
				c.stats.HeartbeatsLost++
				continue
			}
			j.lastHeard[i.id] = t
			if i.term > j.term {
				j.term = i.term
				j.votedFor = -1
				j.role = Follower
			}
			if isLeader && i.term >= j.term {
				j.lastLeaderBeat = t
				// Leader beats carry log reconciliation, like Raft's
				// heartbeat AppendEntries: this is how a follower learns
				// the previous proposal's commit index and how healed
				// nodes converge without waiting for the next proposal.
				c.reconcileLocked(i, j)
			}
		}
	}
	// The beats carried the leader's log: once a majority holds a tail of
	// its term it commits, as Raft's heartbeat AppendEntries does, rather
	// than wait for a next proposal that may never come.
	if lead := c.currentLeaderLocked(); lead != nil && lead.commit < c.base+len(lead.log) && c.lastTermLocked(lead) == lead.term {
		acks := 1
		for _, j := range c.nodes {
			if j != lead && j.up && !j.learner && !j.removed && j.term == lead.term &&
				j.lastLeaderBeat == t && lead.lastHeard[j.id] == t {
				acks++
			}
		}
		if acks*2 > c.votersLocked() {
			lead.commit = c.base + len(lead.log)
			c.advanceApplyLocked(lead, effects)
		}
	}
	for _, i := range c.nodes {
		// Leaving nodes keep voting (they are in the quorum until the
		// tombstone commits) but stop campaigning: a leaving leader could
		// never commit its own tombstone past the remove-the-leader guard.
		if !i.up || i.role == Leader || i.learner || i.removed || c.leaving[i.id] {
			continue
		}
		if t-i.lastLeaderBeat >= i.electionTimeout && t-i.lastElection >= i.electionTimeout {
			c.runElectionLocked(i, t)
		}
	}
	lead := c.currentLeaderLocked()
	if lead == nil {
		return
	}
	for j := range c.nodes {
		// Learners and tombstones are outside the dead/alive verdict
		// cycle: a learner's liveness starts mattering at promotion, a
		// removed node never comes back.
		if j == lead.id || c.joining[j] || c.removed[j] {
			continue
		}
		heardAgo := t - lead.lastHeard[j]
		if c.alive[j] && heardAgo > deadAfter {
			data := strconv.Itoa(j) + sep + "dead"
			if !c.pendingLocked(lead, "member", data) {
				c.proposeLocked(Entry{Kind: "member", Data: data}, effects)
			}
		}
		// Revival rides on detector evidence alone (a recent heartbeat),
		// never ground-truth process liveness — same discipline as the
		// suspect/dead verdicts.
		if !c.alive[j] && heardAgo <= suspectAfter {
			data := strconv.Itoa(j) + sep + "alive"
			if !c.pendingLocked(lead, "member", data) {
				c.proposeLocked(Entry{Kind: "member", Data: data}, effects)
			}
		}
	}
}

// Bootstrap elects the first leader — call once at wiring time, before
// traffic. A lone voter needs no votes, so it wins at once and the clock
// stays put; a larger cluster advances virtual time in heartbeat steps
// until its election timers elect one.
func (c *Cluster) Bootstrap() error {
	now := c.clock.Now()
	c.mu.Lock()
	if c.votersLocked() == 1 && c.currentLeaderLocked() == nil {
		c.runElectionLocked(c.nodes[0], now)
		c.storeViewLocked(now)
	}
	c.mu.Unlock()
	for i := 0; i < 256; i++ {
		if c.Leader() >= 0 {
			return nil
		}
		c.clock.Advance(heartbeatEvery)
		c.Tick()
	}
	return errors.New("cluster: bootstrap elected no leader")
}

// NodeStatus is one node's externally visible state.
type NodeStatus struct {
	ID           int
	Up           bool
	Alive        bool // committed membership
	Suspect      bool
	Draining     bool
	Joining      bool // learner admitted, promotion not yet committed
	Leaving      bool // leave committed, awaiting tombstone
	Removed      bool // tombstoned, never returns
	Role         string
	Term         int64
	LogLen       int
	Commit       int
	SlicesOwned  int
	BacklogBytes int64 // stale bytes awaiting re-replication off this node
}

// ClusterStatus is the full status snapshot lakectl and the gateway
// serve.
type ClusterStatus struct {
	Nodes   []NodeStatus
	Leader  int
	Term    int64
	Applied int
	Stats   Stats
}

// Status assembles the cluster status view.
func (c *Cluster) Status() ClusterStatus {
	v := c.CurrentView()
	c.mu.Lock()
	st := ClusterStatus{Leader: -1, Applied: c.applied, Stats: c.stats}
	if lead := c.currentLeaderLocked(); lead != nil {
		st.Leader = lead.id
		st.Term = lead.term
	}
	nodes := make([]NodeStatus, len(c.nodes))
	for i, n := range c.nodes {
		logLen := c.base + len(n.log)
		if n.removed {
			logLen = n.end
		}
		nodes[i] = NodeStatus{
			ID: i, Up: n.up, Role: n.role.String(), Term: n.term,
			LogLen: logLen, Commit: n.commit,
			Alive: c.alive[i], Draining: c.draining[i],
			Joining: c.joining[i], Leaving: c.leaving[i], Removed: c.removed[i],
		}
		if i < len(v.Suspect) {
			nodes[i].Suspect = v.Suspect[i]
		}
	}
	pools := append([]attachedPool(nil), c.pools...)
	c.mu.Unlock()
	for _, ap := range pools {
		bySlice := ap.p.DomainSlices()
		for i := range nodes {
			nodes[i].SlicesOwned += bySlice[i]
		}
	}
	// Backlog counts once per (manager, pool) pair, attributing each
	// pool's stale disks through that pool's own disk→node table — disk
	// IDs alias across pools and, after joins, no longer follow i%N.
	for _, mgr := range distinctManagers(pools) {
		for _, ap := range pools {
			for d, b := range mgr.StaleByDiskIn(ap.p) {
				if n := diskNodeOf(ap, d); n >= 0 && n < len(nodes) {
					nodes[n].BacklogBytes += b
				}
			}
		}
	}
	st.Nodes = nodes
	return st
}

// diskNodeOf resolves one disk through an attached pool's table.
func diskNodeOf(ap attachedPool, d pool.DiskID) int {
	if int(d) >= 0 && int(d) < len(ap.diskNode) {
		return ap.diskNode[d]
	}
	return -1
}

// SetObs registers the cluster's telemetry: per-node liveness, slice
// ownership, and re-replication backlog gauges, plus election/commit
// counters read from Stats — the /metrics surface the failover
// runbooks watch.
func (c *Cluster) SetObs(reg *obs.Registry) {
	for i := 0; i < c.cfg.Nodes; i++ {
		node := i
		label := `{node="` + strconv.Itoa(i) + `"}`
		reg.GaugeFunc("cluster_node_alive"+label, func() float64 {
			v := c.CurrentView()
			if node < len(v.Alive) && v.Alive[node] {
				return 1
			}
			return 0
		})
		reg.GaugeFunc("cluster_node_suspect"+label, func() float64 {
			v := c.CurrentView()
			if node < len(v.Suspect) && v.Suspect[node] {
				return 1
			}
			return 0
		})
		reg.GaugeFunc("cluster_node_slices"+label, func() float64 {
			var total int
			c.mu.Lock()
			pools := append([]attachedPool(nil), c.pools...)
			c.mu.Unlock()
			for _, ap := range pools {
				total += ap.p.DomainSlices()[node]
			}
			return float64(total)
		})
		reg.GaugeFunc("cluster_node_backlog_bytes"+label, func() float64 {
			var total int64
			c.mu.Lock()
			pools := append([]attachedPool(nil), c.pools...)
			c.mu.Unlock()
			for _, mgr := range distinctManagers(pools) {
				for _, ap := range pools {
					for d, b := range mgr.StaleByDiskIn(ap.p) {
						if diskNodeOf(ap, d) == node {
							total += b
						}
					}
				}
			}
			return float64(total)
		})
	}
	reg.GaugeFunc("cluster_leader", func() float64 { return float64(c.Leader()) })
	reg.CounterFunc("cluster_elections_total", func() int64 { return c.Stats().Elections })
	reg.CounterFunc("cluster_commits_total", func() int64 { return c.Stats().Commits })
	reg.CounterFunc("cluster_commit_fails_total", func() int64 { return c.Stats().CommitFails })
	reg.CounterFunc("cluster_heartbeats_lost_total", func() int64 { return c.Stats().HeartbeatsLost })
}

// distinctManagers returns each attached plog manager once, in attach
// order — pools can share a manager (SSD + HDD tiers).
func distinctManagers(pools []attachedPool) []*plog.Manager {
	var out []*plog.Manager
	for _, ap := range pools {
		if ap.mgr == nil {
			continue
		}
		dup := false
		for _, m := range out {
			if m == ap.mgr {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, ap.mgr)
		}
	}
	return out
}

// sortedDiskIDs is a small helper for deterministic iteration in tests.
func sortedDiskIDs(m map[pool.DiskID]bool) []pool.DiskID {
	out := make([]pool.DiskID, 0, len(m))
	for d := range m {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
