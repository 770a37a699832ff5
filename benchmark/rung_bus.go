package main

import (
	"streamlake/internal/bus"
	"streamlake/internal/tenant"
)

// Rung: bus. Entry point pinned: (*Bus).Send(n, prio).
//
// A lake keeps its worker buses to itself, so the rung builds one the
// way streamsvc does (RDMA path, aggregation on), hangs it on the lake's
// network fault plane and, with tenants, gives it the weighted-fair
// scheduler. Every produced message crosses the bus twice: the payload
// at normal priority and a small acknowledgement at high priority.
func (c *climber) busRung() {
	sends := c.count("bus.calls")
	if sends == 0 {
		return
	}
	lake := c.open()
	b := bus.New(bus.Config{Path: bus.RDMA, Aggregation: true})
	b.SetNet(lake.Net(), "worker/0")
	if reg := lake.Tenants(); reg != nil {
		b.SetQoS(tenant.NewSched(lake.Clock(), reg, b.Link().Spec().WriteBandwidth))
	}
	// Acknowledgement size: what is left of the bytes once payloads are out.
	ack := int64(avg(c.m["_bus.bytes"]-c.m["_streamsvc.produced_bytes"], float64(sends)/2))
	c.rung("produce", "bus", sends, sampleCap, func(i int) {
		if i%2 == 1 {
			b.Send(ack, bus.High)
			return
		}
		m := &c.w.pool[i/2%len(c.w.pool)]
		b.Send(int64(len(m.key)+len(m.value)), bus.Normal)
	})
}
