package main

import (
	"errors"

	"streamlake/internal/plog"
)

// Rung: plog. Entry points pinned: (*Manager).Create(red),
// (*PLog).Append(data), (*PLog).Read(offset, n), (*PLog).Seal() and,
// untimed, (*Manager).Destroy(id).
//
// Stream slices are appended to long-lived logs that roll over when
// full, and read back by offset; where the round converts, burst by
// burst, destroying the logs after each as the reclaiming conversion
// does. Table files are one sealed EC(4,2) log each: create, append,
// seal, and later one read of the whole file. Counts and mean sizes are
// the round's.
func (c *climber) plogRung() {
	lake := c.open()
	mgr := lake.Logs()

	// Stream side.
	type extent struct {
		log    *plog.PLog
		off, n int64
	}
	flushes, reads, path, bursts := c.count("streamobj.slice_flushes"), c.count("_stream.slice_reads"), "consume", 1
	if c.w.converts > 0 {
		path, bursts = "convert", c.w.converts
	}
	data := payload(avg(c.m["streamobj.flush_bytes"], float64(flushes)))
	for b := 0; b < bursts && flushes > 0; b++ {
		var extents []extent
		var logs []*plog.PLog
		// One open log per stream, as the shard space keeps them, so the
		// logs grow the way the round's do.
		open := make([]*plog.PLog, max(1, c.w.topic.StreamNum))
		c.rung("produce", "plog", flushes/bursts, flushes/bursts, func(i int) {
			s := i % len(open)
			for try := 0; try < 2; try++ {
				if open[s] == nil {
					var err error
					if open[s], err = mgr.Create(c.redundancy()); err != nil {
						c.errorf("plog rung: %v", err)
						return
					}
					logs = append(logs, open[s])
				}
				off, _, err := open[s].Append(data)
				if errors.Is(err, plog.ErrFull) {
					open[s] = nil
					continue
				}
				if err != nil {
					c.errorf("plog rung: append: %v", err)
				}
				extents = append(extents, extent{open[s], off, int64(len(data))})
				return
			}
		})
		if len(extents) > 0 {
			c.rung(path, "plog", reads/bursts, reads/bursts, func(i int) {
				e := extents[i%len(extents)]
				if _, _, err := e.log.Read(e.off, e.n); err != nil {
					c.errorf("plog rung: read: %v", err)
				}
			})
		}
		if c.w.converts == 0 {
			break
		}
		for _, lg := range logs {
			if err := mgr.Destroy(lg.ID()); err != nil {
				c.errorf("plog rung: destroy: %v", err)
			}
		}
	}

	// Table side: the load path writes files, the query path reads them.
	writes := c.count("_table.writes")
	if writes == 0 {
		return
	}
	blob := payload(avg(c.m["_table.bytes"], float64(writes)))
	files := make([]*plog.PLog, 0, writes)
	write := func(int) {
		lg, err := mgr.Create(plog.EC(4, 2))
		if err != nil {
			c.errorf("plog rung: %v", err)
			return
		}
		if _, _, err := lg.Append(blob); err != nil {
			c.errorf("plog rung: file append: %v", err)
		}
		lg.Seal()
		files = append(files, lg)
	}
	if c.w.converts == 0 && len(c.w.inserts) > 0 {
		c.rung("load", "plog", writes, writes, write)
	} else {
		for i := 0; i < min(writes, 64); i++ {
			write(i)
		}
	}
	if reads := c.count("_table.reads"); reads > 0 && len(c.w.scans) > 0 && len(files) > 0 {
		n := int64(min(len(blob), avg(c.m["_table.read_bytes"], float64(reads))))
		c.rung("query", "plog", reads, sampleCap, func(i int) {
			if _, _, err := files[i%len(files)].Read(0, n); err != nil {
				c.errorf("plog rung: file read: %v", err)
			}
		})
	}
}
