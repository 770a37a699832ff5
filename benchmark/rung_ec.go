package main

import (
	"streamlake/internal/ec"
	"streamlake/internal/plog"
)

// Rung: ec. Entry point pinned: (*Codec).Encode(codec.Split(data)).
//
// An erasure-coded log encodes every append once, to checksum the
// parity columns it would store. Stream slices are encoded only when
// the topic is EC; table files always are, EC(4,2).
func (c *climber) ecRung() {
	encode := func(path string, calls, size int, red plog.Redundancy) {
		codec, err := ec.New(red.K, red.M)
		if err != nil {
			c.errorf("ec rung: %v", err)
			return
		}
		data := payload(size)
		c.rung(path, "ec", calls, sampleCap, func(int) {
			if _, err := codec.Encode(codec.Split(data)); err != nil {
				c.errorf("ec rung: %v", err)
			}
		})
	}
	if red := c.redundancy(); red.Kind == plog.ErasureCode {
		flushes := c.count("streamobj.slice_flushes")
		encode("produce", flushes, avg(c.m["streamobj.flush_bytes"], float64(flushes)), red)
	}
	if writes := c.count("_table.writes"); c.w.converts == 0 && len(c.w.inserts) > 0 {
		encode("load", writes, avg(c.m["_table.bytes"], float64(writes)), plog.EC(4, 2))
	}
}
