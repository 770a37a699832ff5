package main

import (
	"strconv"
	"time"

	"streamlake"
	"streamlake/internal/cluster"
)

// clusterWL: ~200 B sends into a 4-stream topic on a 3-node lake, where
// every acknowledgement waits for the replicated metadata log to commit
// the produce on a quorum. One follower is killed half way and revived
// at three quarters; re-replication then runs to completion and a
// consumer drains everything. The count is fixed because the cost of a
// commit grows with the length of the log.
type clusterWL struct {
	pool []message
}

const (
	clusterMessages = 30_000
	clusterNodes    = 3
	// tickEvery sends, the virtual clock moves a millisecond and the
	// cluster plane runs its heartbeats, as a deployed node's timer would.
	tickEvery = 64
	// clusterDrains consumer groups each drain the whole topic.
	clusterDrains = 5
)

func (w *clusterWL) open(e *env) (*streamlake.Lake, error) {
	lake, err := streamlake.Open(streamlake.Config{Seed: e.seed, Nodes: clusterNodes})
	if err != nil {
		return nil, err
	}
	return lake, lake.CreateTopic(plainTopic)
}

func (w *clusterWL) setup(e *env) error {
	w.pool = smallPool(e.seed)
	_, err := w.open(e)
	return err
}

// settle advances virtual time, a millisecond per heartbeat round, until
// the membership view shows node as wanted. Sends issued before the view
// converges would be refused by the victim's workers, and the workload
// is not about client retries, so the client waits like an operator
// would.
func settle(lake *streamlake.Lake, cl *cluster.Cluster, node int, alive bool) bool {
	for i := 0; i < 400; i++ {
		lake.Clock().Advance(time.Millisecond)
		cl.Tick()
		if cl.CurrentView().Alive[node] == alive {
			return true
		}
	}
	return false
}

func (w *clusterWL) round(e *env) *roundResult {
	r := newRound()
	lake, err := w.open(e)
	if err != nil {
		r.fail("open: %v", err)
		return r
	}
	r.lake = lake
	cl := lake.Cluster()
	n := e.n(clusterMessages)
	led := newLedger(w.pool, 4, n)
	acks := make([]time.Duration, 0, n)
	p := lake.Producer("bench")
	victim := (cl.Leader() + 1) % clusterNodes
	var user int64
	wall := r.phase(func() {
		user = produce(e, r, p, w.pool, led, 0, n, &acks, func(i int) {
			switch i {
			case n / 2:
				if err := cl.KillNode(victim); err != nil {
					r.fail("kill node %d: %v", victim, err)
				} else if !settle(lake, cl, victim, false) {
					r.fail("node %d never declared dead", victim)
				}
			case n * 3 / 4:
				if err := cl.ReviveNode(victim); err != nil {
					r.fail("revive node %d: %v", victim, err)
				} else if !settle(lake, cl, victim, true) {
					r.fail("node %d never declared alive", victim)
				}
			}
			if i%tickEvery == 0 {
				lake.Clock().Advance(time.Millisecond)
				cl.Tick()
			}
		})
	})
	r.wall["produce_kmsgs_per_s"] = float64(n) / wall.Seconds() / 1e3
	r.exact["produce_ack_virt_mean_us"] = durMeanUS(acks)

	r.attempted++
	if reb := cl.RunRebalance(2 * time.Second); !reb.Complete {
		r.fail("rebalance left %d degraded logs, %d stale bytes", reb.RemainingLogs, reb.RemainingStale)
	}
	// The drain of 30,000 small messages is over in ten milliseconds, too
	// short to time to a few percent, so several consumer groups catch up
	// one after the other, each checked in full.
	var d drained
	for g := 0; g < clusterDrains; g++ {
		led.rewind()
		drain(e, r, lake, led, "bench-"+strconv.Itoa(g), &d)
	}
	st := lake.Stats()
	if st.StaleBytes != 0 {
		r.fail("round ended with %d stale bytes", st.StaleBytes)
	}
	r.wall["poll_kmsgs_per_s"] = float64(d.msgs) / d.wall.Seconds() / 1e3
	r.exact["poll_virt_mean_us"] = durMeanUS(d.virt)
	r.exact["stored_bytes_per_user_byte"] = float64(st.PhysicalBytes) / float64(user)
	r.ops = n
	r.readCounts(lake)
	r.counts.userBytes = user
	r.work = work{cfg: streamlake.Config{Seed: e.seed, Nodes: clusterNodes}, topic: plainTopic,
		pool: w.pool, sends: n, polls: d.polls, nodes: clusterNodes}
	return r
}
