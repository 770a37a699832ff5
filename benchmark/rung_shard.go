package main

import (
	"streamlake/internal/shard"
)

// Rung: shard. Entry points pinned: (*Space).Append(shard, data),
// (*Space).Read(loc) and, untimed, (*Space).Drop(shard).
//
// A stream object hands the shard space one encoded slice per flush;
// the rung appends as many payloads of the round's mean slice size to a
// space over a fresh lake's logs, then reads back as many of them as the
// round read slices. Where the round converts, it goes burst by burst
// and drops the shards after each, as the reclaiming conversion does.
func (c *climber) shardRung() {
	flushes := c.count("streamobj.slice_flushes")
	if flushes == 0 {
		return
	}
	lake := c.open()
	sp := shard.NewSpace(lake.Logs(), c.redundancy())
	data := payload(avg(c.m["streamobj.flush_bytes"], float64(flushes)))
	streams := max(1, c.w.topic.StreamNum)
	reads, path, bursts := c.count("_stream.slice_reads"), "consume", 1
	if c.w.converts > 0 {
		path, bursts = "convert", c.w.converts
	}
	for b := 0; b < bursts; b++ {
		locs := make([]shard.Loc, 0, flushes/bursts)
		c.rung("produce", "shard", flushes/bursts, flushes/bursts, func(i int) {
			loc, _, err := sp.Append(shard.ID(i%streams), data)
			if err != nil {
				c.errorf("shard rung: append: %v", err)
				return
			}
			locs = append(locs, loc)
		})
		if len(locs) == 0 {
			return
		}
		c.rung(path, "shard", reads/bursts, reads/bursts, func(i int) {
			if _, _, err := sp.Read(locs[i%len(locs)]); err != nil {
				c.errorf("shard rung: read: %v", err)
			}
		})
		if c.w.converts == 0 {
			return
		}
		for s := 0; s < streams; s++ {
			if err := sp.Drop(shard.ID(s)); err != nil {
				c.errorf("shard rung: drop: %v", err)
			}
		}
	}
}
