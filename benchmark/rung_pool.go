package main

import (
	"time"

	"streamlake/internal/plog"
	"streamlake/internal/pool"
)

// Rung: pool. Entry points pinned: (*Pool).Write(id, n) and
// (*Pool).Read(id, n).
//
// A log charges each append to every slice of its placement group and a
// read to one copy (replication) or K shards (erasure coding). The rung
// allocates groups on a fresh lake's SSD pool and issues the round's
// device operations at their mean sizes, split between the stream and
// the table side the way the logs above split them.
func (c *climber) poolRung() {
	lake := c.open()
	p := lake.SSDPool()
	// ops issues device operations of one kind on a fresh placement
	// group, each the size one slice sees of a log operation of n bytes.
	ops := func(path string, count int, red plog.Redundancy, n int, op func(pool.SliceID, int64) (time.Duration, error)) {
		if count <= 0 {
			return
		}
		g, err := p.AllocGroup(red.Width())
		if err != nil {
			c.errorf("pool rung: %v", err)
			return
		}
		per := shardBytes(red, n)
		c.rung(path, "pool", count, sampleCap, func(i int) {
			if _, err := op(g[i%len(g)].ID, per); err != nil {
				c.errorf("pool rung: %v", err)
			}
		})
	}
	write := func(path string, count int, red plog.Redundancy, n int) { ops(path, count, red, n, p.Write) }
	read := func(path string, count int, red plog.Redundancy, n int) { ops(path, count, red, n, p.Read) }
	fanout := func(red plog.Redundancy) int { // device reads behind one log read
		if red.Kind == plog.ErasureCode {
			return red.K
		}
		return 1
	}

	flushes, sliceReads := c.count("streamobj.slice_flushes"), c.count("_stream.slice_reads")
	streamRed, fileRed := c.redundancy(), plog.EC(4, 2)
	write("produce", flushes*streamRed.Width(), streamRed, avg(c.m["streamobj.flush_bytes"], float64(flushes)))
	streamReadOps := min(c.count("pool.read_ops"), sliceReads*fanout(streamRed))
	path := "consume"
	if c.w.converts > 0 {
		path = "convert"
	}
	read(path, streamReadOps, streamRed, avg(c.m["_stream.slice_read_bytes"], float64(sliceReads)))

	if tableWrites := c.count("_table.writes"); c.w.converts == 0 && len(c.w.inserts) > 0 {
		write("load", tableWrites*fileRed.Width(), fileRed, avg(c.m["_table.bytes"], float64(tableWrites)))
	}
	if tableReads := c.count("_table.reads"); len(c.w.scans) > 0 {
		read("query", c.count("pool.read_ops")-streamReadOps, fileRed, avg(c.m["_table.read_bytes"], float64(tableReads)))
	}
}
