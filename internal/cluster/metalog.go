package cluster

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// The replicated metadata log is a deliberately small Raft: leader
// election with the log-up-to-date restriction, term-fenced appends,
// majority commit counted over the full membership (dead nodes cannot
// ack, which is exactly what makes a minority partition unable to
// commit), and reconciliation that re-finds the match point on every
// append instead of per-follower nextIndex bookkeeping — walking back
// from the log's end, so an in-step follower costs one term compare.
// Every message rides the NetPlane, so drops, delays, and partitions
// shape elections and commits the same way they shape data traffic.

// Role is a node's position in the metadata log's consensus.
type Role int

// The consensus roles.
const (
	Follower Role = iota
	Candidate
	Leader
)

// String names the role for status displays.
func (r Role) String() string {
	switch r {
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	default:
		return "follower"
	}
}

// Entry is one record of the replicated metadata log.
type Entry struct {
	Term int64
	Kind string // "produce", "member", "meta"
	Data string
}

// Errors surfaced by metadata-log operations.
var (
	// ErrNoLeader means no live node currently holds leadership; retry
	// after the failure detector and election timers make progress.
	ErrNoLeader = errors.New("cluster: no leader")
	// ErrNoQuorum means the leader could not replicate to a majority —
	// the caller's write is durable locally but NOT committed and must
	// not be acknowledged.
	ErrNoQuorum = errors.New("cluster: no quorum")
)

// Modelled message sizes on the metadata plane.
const (
	heartbeatBytes = 64
	voteBytes      = 32
	ackBytes       = 32
	entryOverhead  = 128
)

// votersLocked is the quorum denominator: full members only. Learners
// replicate but do not count; removed tombstones are gone. With no
// runtime joins or removals this equals len(c.nodes) — the birth
// behavior, bit for bit.
func (c *Cluster) votersLocked() int {
	n := 0
	for _, m := range c.nodes {
		if !m.learner && !m.removed {
			n++
		}
	}
	return n
}

func lastTerm(n *nodeState) int64 {
	if len(n.log) == 0 {
		return 0
	}
	return n.log[len(n.log)-1].Term
}

// currentLeaderLocked returns the highest-term live leader, or nil. With
// a healed partition two leaders can coexist briefly; preferring the
// higher term routes clients to the one that can still commit.
func (c *Cluster) currentLeaderLocked() *nodeState {
	var lead *nodeState
	for _, n := range c.nodes {
		if n.up && n.role == Leader && (lead == nil || n.term > lead.term) {
			lead = n
		}
	}
	return lead
}

// reconcileLocked forces peer's log to match lead's: keep the prefix
// below the match point k, truncate the conflict tail, append the
// leader's remainder. k is the first index, walking back from the
// shorter log's end, whose terms agree: by Log Matching all below it
// agree too, so a scan up from 0 would stop at the same k. Term-fencing
// happens at the call sites (a peer with a higher term refuses the
// append and the stale leader steps down).
func (c *Cluster) reconcileLocked(lead, peer *nodeState) {
	k := min(len(peer.log), len(lead.log))
	for ; k > 0 && peer.log[k-1].Term != lead.log[k-1].Term; k-- {
		c.walkSteps++
	}
	if k < len(peer.log) {
		peer.log = peer.log[:k:k]
	}
	peer.log = append(peer.log, lead.log[k:]...)
	peer.commit = min(lead.commit, len(peer.log))
}

// runElectionLocked has node i campaign at boundary t. Vote requests and
// grants each ride the NetPlane, so a partitioned candidate collects no
// votes. Grants follow Raft's election restriction: a voter refuses a
// candidate whose log is less up to date than its own, which is what
// guarantees a new leader already holds every committed entry.
func (c *Cluster) runElectionLocked(i *nodeState, t time.Duration) {
	i.term++
	i.role = Candidate
	i.votedFor = i.id
	i.lastElection = t
	votes := 1
	for _, j := range c.nodes {
		if j == i || !j.up || j.learner || j.removed {
			continue
		}
		if _, err := c.net.Deliver(i.ep, j.ep, voteBytes); err != nil {
			continue
		}
		if i.term > j.term {
			j.term = i.term
			j.votedFor = -1
			j.role = Follower
		}
		if j.term > i.term {
			// The cluster moved on without this candidate. Entering the
			// newer term means its self-vote is void there: clear votedFor
			// so it can grant the newer term's candidate.
			i.term = j.term
			i.votedFor = -1
			i.role = Follower
			return
		}
		upToDate := lastTerm(i) > lastTerm(j) ||
			(lastTerm(i) == lastTerm(j) && len(i.log) >= len(j.log))
		if j.votedFor != -1 && j.votedFor != i.id || !upToDate {
			continue
		}
		// The vote is recorded at the voter even if the grant message is
		// lost on the way back — votedFor is the voter's promise.
		j.votedFor = i.id
		if _, err := c.net.Deliver(j.ep, i.ep, voteBytes); err != nil {
			continue
		}
		votes++
	}
	if votes*2 <= c.votersLocked() {
		return // stay candidate; retry after the next timeout
	}
	i.role = Leader
	i.lastLeaderBeat = t
	c.stats.Elections++
	c.termWins[i.term]++
	// Assert leadership immediately: beat and reconcile every reachable
	// peer so due election timers elsewhere stand down this boundary.
	for _, j := range c.nodes {
		if j == i || !j.up {
			continue
		}
		if _, err := c.net.Deliver(i.ep, j.ep, heartbeatBytes); err != nil {
			continue
		}
		if i.term >= j.term {
			if i.term > j.term {
				// Term increase voids any vote cast in the older term; a
				// same-term vote (for this winner or a loser) stands.
				j.votedFor = -1
			}
			j.term = i.term
			j.role = Follower
			j.lastLeaderBeat = t
			c.reconcileLocked(i, j)
		}
	}
}

// proposeLocked appends one entry at the current leader and replicates
// it synchronously. Commit requires acks from a majority of the FULL
// membership — dead and partitioned nodes simply cannot ack, so a
// minority side never commits (and therefore never acknowledges a
// producer). The returned cost is the slowest replication round trip,
// which the caller charges to the requesting operation.
func (c *Cluster) proposeLocked(kind, data string, effects *[]func()) (time.Duration, error) {
	lead := c.currentLeaderLocked()
	if lead == nil {
		c.stats.CommitFails++
		return 0, ErrNoLeader
	}
	lead.log = append(lead.log, Entry{Term: lead.term, Kind: kind, Data: data})
	size := int64(entryOverhead + len(data))
	acks := 1
	var cost time.Duration
	for _, j := range c.nodes {
		if j == lead || !j.up {
			continue
		}
		d1, err := c.net.Deliver(lead.ep, j.ep, size)
		if err != nil {
			continue
		}
		if j.term > lead.term {
			// Term fence: the peer has seen a newer leader. Step down
			// (clearing votedFor — the adopted term is one this node never
			// voted in); the conflicting tail (including this entry) will
			// be truncated by the newer leader's reconcile.
			lead.term = j.term
			lead.votedFor = -1
			lead.role = Follower
			c.stats.CommitFails++
			return cost, ErrNoQuorum
		}
		if lead.term > j.term {
			// Same rule on the follower side: adopting a higher term voids
			// any vote the follower cast in its old term.
			j.term = lead.term
			j.votedFor = -1
		}
		c.reconcileLocked(lead, j)
		if j.learner {
			// Learners replicate but never count toward quorum: a
			// catching-up node must not swing commit decisions.
			continue
		}
		d2, err := c.net.Deliver(j.ep, lead.ep, ackBytes)
		if err != nil {
			continue
		}
		if rtt := d1 + d2; rtt > cost {
			cost = rtt
		}
		acks++
	}
	if acks*2 <= c.votersLocked() {
		c.stats.CommitFails++
		return cost, ErrNoQuorum
	}
	lead.commit = len(lead.log)
	c.stats.Commits++
	c.advanceApplyLocked(lead, effects)
	return cost, nil
}

// pendingLocked reports whether the leader's log already carries an
// identical entry past the applied index — the guard that keeps a
// quorum-less leader from appending the same membership proposal every
// heartbeat boundary.
func (c *Cluster) pendingLocked(lead *nodeState, kind, data string) bool {
	from := c.applied
	if from > len(lead.log) {
		from = len(lead.log)
	}
	for _, e := range lead.log[from:] {
		if e.Kind == kind && e.Data == data {
			return true
		}
	}
	return false
}

// advanceApplyLocked applies newly committed entries, in order, to the
// cluster state machine. Side effects that must run without c.mu held
// (stale-marking in the plog layer, membership callbacks into the
// stream service) are collected into effects for the caller to run
// after unlocking.
func (c *Cluster) advanceApplyLocked(lead *nodeState, effects *[]func()) {
	for idx := c.applied; idx < lead.commit; idx++ {
		c.applyLocked(lead.log[idx], effects)
	}
	if lead.commit > c.applied {
		c.applied = lead.commit
	}
}

func (c *Cluster) applyLocked(e Entry, effects *[]func()) {
	switch e.Kind {
	case "produce":
		// Idempotent by construction: the key includes the stream's base
		// offset, so a retried batch (same base via the dedup window)
		// folds into one record no matter how many proposals committed.
		c.produced[e.Data] = true
	case "member":
		parts := strings.SplitN(e.Data, sep, 2)
		if len(parts) != 2 {
			return
		}
		n, err := strconv.Atoi(parts[0])
		if err != nil || n < 0 || n >= len(c.nodes) {
			return
		}
		switch parts[1] {
		case "dead":
			if !c.alive[n] {
				return
			}
			c.alive[n] = false
			*effects = append(*effects, func() { c.nodeDeclaredDead(n) })
		case "alive":
			if c.alive[n] {
				return
			}
			c.alive[n] = true
			serving := !c.draining[n]
			*effects = append(*effects, func() { c.nodeDeclaredAlive(n, serving) })
		case "drain":
			if c.draining[n] {
				return
			}
			c.draining[n] = true
			*effects = append(*effects, func() { c.membershipChanged(n, false) })
		case "undrain":
			if !c.draining[n] {
				return
			}
			c.draining[n] = false
			serving := c.alive[n]
			*effects = append(*effects, func() { c.membershipChanged(n, serving) })
		case "join":
			// Promote the learner to voter in this single committed
			// config entry: it enters the ring here, and the arc
			// migration (bounded by moveSlack) runs as a side effect.
			if !c.joining[n] {
				return
			}
			c.joining[n] = false
			c.nodes[n].learner = false
			c.ringT.addNode(n)
			c.stats.Joins++
			*effects = append(*effects, func() { c.nodeJoined(n) })
		case "leave":
			// First leg of a removal: the node stops taking placements
			// (drain semantics) and its slices relocate off as a side
			// effect. It keeps voting until the tombstone commits.
			if c.leaving[n] || c.removed[n] {
				return
			}
			c.leaving[n] = true
			c.draining[n] = true
			*effects = append(*effects, func() { c.nodeLeaving(n) })
		case "remove":
			// Tombstone: the node leaves the ring, the voter set, and
			// the heartbeat schedule, permanently. IDs are never reused.
			if c.removed[n] {
				return
			}
			c.removed[n] = true
			c.leaving[n] = false
			c.alive[n] = false
			c.nodes[n].removed = true
			c.nodes[n].up = false
			if c.nodes[n].role == Leader {
				c.nodes[n].role = Follower
			}
			c.ringT.removeNode(n)
			c.stats.Removes++
			*effects = append(*effects, func() { c.nodeRemoved(n) })
		}
	case "meta":
		if key, ok := strings.CutPrefix(e.Data, metaTombstone); ok {
			delete(c.meta, key)
		} else {
			c.meta[e.Data] = true
		}
	}
}

const sep = "\x1f"

// metaTombstone prefixes a replicated meta record that clears a
// previously committed key — deletions travel through the same log as
// creations, so a delete-then-recreate replicates both legs and a
// minority partition can do neither.
const metaTombstone = "del" + sep

func produceKey(topic string, stream int, base int64, count int) string {
	b := append(append(make([]byte, 0, 64), topic...), sep...) // on the stack: the string is the one allocation
	b = append(strconv.AppendInt(b, int64(stream), 10), sep...)
	b = append(strconv.AppendInt(b, base, 10), sep...)
	return string(strconv.AppendInt(b, int64(count), 10))
}

// CommitProduce records an acknowledged produce batch in the replicated
// metadata log — the commit gate the stream service calls between the
// durable append and the client ack. An already-committed key (a retry
// whose previous attempt committed but whose ack was lost) returns
// immediately: the dedup window already re-served the original base, and
// re-proposing would only bloat the log. On ErrNoLeader/ErrNoQuorum the
// producer must NOT ack; its retry re-enters here after the appended
// batch deduplicates.
func (c *Cluster) CommitProduce(topic string, stream int, base int64, count int) (time.Duration, error) {
	key := produceKey(topic, stream, base, count)
	var effects []func()
	c.mu.Lock()
	if c.produced[key] {
		c.mu.Unlock()
		return 0, nil
	}
	cost, err := c.proposeLocked("produce", key, &effects)
	c.mu.Unlock()
	c.runEffects(effects)
	return cost, err
}

// ProduceCommitted reports whether an acked produce batch made it into
// the applied metadata log — the chaos harness's coverage checker: every
// acknowledged write must satisfy this after the drill settles.
func (c *Cluster) ProduceCommitted(topic string, stream int, base int64, count int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.produced[produceKey(topic, stream, base, count)]
}

// ProposeMeta replicates one opaque metadata record (topic and table
// definitions) through the log.
func (c *Cluster) ProposeMeta(data string) (time.Duration, error) {
	var effects []func()
	c.mu.Lock()
	if c.meta[data] {
		c.mu.Unlock()
		return 0, nil
	}
	cost, err := c.proposeLocked("meta", data, &effects)
	c.mu.Unlock()
	c.runEffects(effects)
	return cost, err
}

// ProposeMetaDelete replicates a tombstone clearing a previously
// committed metadata record (topic deletion, table drop). A key that was
// never committed — or whose tombstone already applied — returns
// immediately, keeping the call idempotent without bloating the log.
func (c *Cluster) ProposeMetaDelete(data string) (time.Duration, error) {
	var effects []func()
	c.mu.Lock()
	if !c.meta[data] {
		c.mu.Unlock()
		return 0, nil
	}
	cost, err := c.proposeLocked("meta", metaTombstone+data, &effects)
	c.mu.Unlock()
	c.runEffects(effects)
	return cost, err
}

// MetaCommitted reports whether a metadata record is applied.
func (c *Cluster) MetaCommitted(data string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.meta[data]
}

// CommittedLog snapshots one node's committed log prefix — the chaos
// harness compares these across nodes to prove replicated-state
// agreement.
func (c *Cluster) CommittedLog(node int) []Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if node < 0 || node >= len(c.nodes) {
		return nil
	}
	n := c.nodes[node]
	return append([]Entry(nil), n.log[:n.commit]...)
}

// CheckLogMatching verifies Raft's Log Matching over every pair of full
// logs, uncommitted tails included: where two logs agree on an index's
// term they hold identical entries there and everywhere below. It is
// the precondition of reconcileLocked's backward walk.
func (c *Cluster) CheckLogMatching() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for ai, a := range c.nodes {
		for _, b := range c.nodes[ai+1:] {
			matched := false
			for i := min(len(a.log), len(b.log)) - 1; i >= 0; i-- {
				matched = matched || a.log[i].Term == b.log[i].Term
				if matched && a.log[i] != b.log[i] {
					return fmt.Errorf("cluster: log matching broken: nodes %d and %d differ at index %d, at or below a term match", a.id, b.id, i)
				}
			}
		}
	}
	return nil
}

// LeaderCountByTerm reports how many election wins each term recorded —
// the at-most-one-leader-per-term invariant's evidence.
func (c *Cluster) LeaderCountByTerm() map[int64]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int64]int, len(c.termWins))
	for t, n := range c.termWins {
		out[t] = n
	}
	return out
}

func nodeEndpoint(id int) string { return "node/" + strconv.Itoa(id) }
