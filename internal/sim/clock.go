// Package sim provides the simulated hardware substrate that StreamLake
// runs on in this reproduction: a deterministic virtual clock, device
// models for the storage media classes used by OceanStor Pacific (SCM,
// NVMe SSD, SAS HDD) and the cluster interconnects (10 GbE, RDMA), and
// latency/utilization accounting.
//
// The paper's evaluation was run on physical OceanStor hardware. Here
// every device operation charges an analytically modelled cost (fixed
// per-operation latency plus a bandwidth term) to a virtual clock, which
// keeps experiments deterministic and lets the benchmark harness report
// the same relative shapes the paper reports without the hardware.
package sim

import (
	"sync/atomic"
	"time"
)

// Clock is a monotonically advancing virtual clock. All simulated device
// and network costs are charged to a Clock; experiment harnesses read it
// to compute virtual latencies and throughput. The zero value is a clock
// at time zero, ready for use.
type Clock struct {
	ns atomic.Int64
}

// NewClock returns a virtual clock starting at time zero.
func NewClock() *Clock { return &Clock{} }

// Now reports the current virtual time as an offset from the clock epoch.
func (c *Clock) Now() time.Duration { return time.Duration(c.ns.Load()) }

// Advance moves the clock forward by d. Negative durations are ignored so
// that cost models can never move time backwards.
func (c *Clock) Advance(d time.Duration) time.Duration {
	if d <= 0 {
		return time.Duration(c.ns.Load())
	}
	return time.Duration(c.ns.Add(int64(d)))
}
