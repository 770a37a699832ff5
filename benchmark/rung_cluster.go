package main

import "time"

// Rung: cluster. Entry point pinned: (*Cluster).CommitProduce(topic,
// stream, base, count), the commit gate between a durable append and
// its acknowledgement.
//
// Every call is replayed, in order, with the workload's heartbeat
// cadence and its kill and revival of a follower: a commit's cost grows
// with the log before it, so a sample would not do.
func (c *climber) clusterRung() {
	if c.w.nodes <= 1 {
		return
	}
	lake := c.open()
	cl := lake.Cluster()
	victim := (cl.Leader() + 1) % c.w.nodes
	n := c.w.sends
	streams := max(1, c.w.topic.StreamNum)
	c.rungPrep("produce", "cluster", n, n, func(i int) {
		switch i {
		case n / 2:
			if cl.KillNode(victim) != nil || !settle(lake, cl, victim, false) {
				c.errorf("cluster rung: kill did not settle")
			}
		case n * 3 / 4:
			if cl.ReviveNode(victim) != nil || !settle(lake, cl, victim, true) {
				c.errorf("cluster rung: revival did not settle")
			}
		}
		if i%tickEvery == 0 {
			lake.Clock().Advance(time.Millisecond)
			cl.Tick()
		}
	}, func(i int) {
		if _, err := cl.CommitProduce(c.w.topic.Name, i%streams, int64(i/streams), 1); err != nil {
			c.errorf("cluster rung: commit %d: %v", i, err)
		}
	})
}
