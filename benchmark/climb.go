package main

import (
	"fmt"

	"streamlake"
	"streamlake/internal/plog"
)

// climber runs a workload's rungs. m holds the traced round's counters
// (layerCounts.metrics), which give the lower rungs their call counts
// and payload sizes; live is that round's own lake, still loaded, which
// the read-side rungs of the table paths run against (tableStates).
type climber struct {
	*ladder
	w    work
	m    map[string]float64
	live *streamlake.Lake
	errs []string
	// states caches tableStates.
	states []tableState
}

func (c *climber) errorf(format string, args ...any) {
	if len(c.errs) < 8 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// open builds a fresh lake the way the workload does.
func (c *climber) open() *streamlake.Lake {
	lake, err := streamlake.Open(c.w.cfg)
	if err != nil {
		panic(fmt.Sprintf("ladder: open lake: %v", err)) // the workload just opened the same config
	}
	return lake
}

// count reads one of the round's counters as a whole number of calls.
func (c *climber) count(name string) int { return int(c.m[name] + 0.5) }

// avg is bytes per call, at least one byte.
func avg(bytes, calls float64) int {
	if calls <= 0 || bytes <= 0 {
		return 1
	}
	return max(1, int(bytes/calls+0.5))
}

// redundancy is the stream topic's policy (the default is 3 copies).
func (c *climber) redundancy() plog.Redundancy {
	if c.w.topic.Redundancy.Width() > 0 {
		return c.w.topic.Redundancy
	}
	return plog.ReplicateN(3)
}

// shardBytes is what one placement slice receives of an n-byte append.
func shardBytes(red plog.Redundancy, n int) int64 {
	if red.Kind == plog.ErasureCode {
		return int64((n + red.K - 1) / red.K)
	}
	return int64(n)
}

// payload is a buffer of n bytes that is neither constant nor random
// enough to matter to CRC, copy or Reed-Solomon speed.
func payload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*131 + i>>8)
	}
	return b
}

// sampleCap bounds how many calls a rung with uniform calls replays.
const sampleCap = 50_000

// tableState is the workload's table at one point of a round, the
// queries the round asked at that point, and the factor their time
// scales up by when they are a sample.
type tableState struct {
	lake  *streamlake.Lake
	scans []scanCall
	scale float64
}

// tableStates is the table as the round's queries met it, for the
// read-side rungs of the query path. A workload that loads its table
// before it queries hands over the round's own lake, still loaded, and a
// sample of its queries. One that converts between its queries (pipeline)
// gets one fresh lake per conversion, taken through the same bursts and
// conversions up to that one, with the queries asked at that point: the
// round's own lake is past its update and compaction, which rewrote the
// files those queries read.
func (c *climber) tableStates() []tableState {
	if c.states != nil || len(c.w.scans) == 0 {
		return c.states
	}
	if c.w.converts == 0 {
		scans, scale := c.sampledScans()
		c.states = []tableState{{c.live, scans, scale}}
		return c.states
	}
	burst, asked := c.w.sends/c.w.converts, len(c.w.scans)/c.w.converts
	for b := 0; b < c.w.converts; b++ {
		lake := c.open()
		if err := lake.CreateTopic(c.w.topic); err != nil {
			c.errorf("table states: %v", err)
			break
		}
		p := lake.Producer("ladder")
		for i := 0; i < (b+1)*burst; i++ {
			m := &c.w.pool[i%len(c.w.pool)]
			if _, _, err := p.Send(c.w.topic.Name, m.key, m.value); err != nil {
				c.errorf("table states: send: %v", err)
				break
			}
			if (i+1)%burst == 0 {
				if _, _, err := lake.RunConversion(); err != nil {
					c.errorf("table states: conversion: %v", err)
				}
			}
		}
		c.states = append(c.states, tableState{lake, c.w.scans[b*asked : (b+1)*asked], 1})
	}
	return c.states
}

// climb measures every rung the workload's paths have.
func (c *climber) climb(passes int) {
	c.climbed([]func(){
		c.gatewayRung, c.streamsvcRung, c.tenantRung, c.busRung, c.clusterRung,
		c.streamobjRung, c.shardRung, c.plogRung, c.poolRung, c.ecRung, c.cacheRung,
		c.queryRung, c.lakehouseRung, c.tableobjRung, c.colfileRung, c.convertRung, c.rowcodecRung,
	}, passes)
}
