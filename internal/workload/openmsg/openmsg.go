// Package openmsg is a rate-controlled messaging benchmark driver in the
// style of the OpenMessaging benchmark the paper uses for Figure 14:
// fixed-size messages produced at a target rate, with mean end-to-end
// produce latency and sustained throughput reported. Because virtual
// time is cheap, the driver sends a real message sample through the
// service and extends the measurement analytically with a group-commit
// batching and queueing model calibrated from the measured ack costs.
package openmsg

import (
	"fmt"
	"time"

	"streamlake/internal/sim"
	"streamlake/internal/streamsvc"
)

// Config is one benchmark point.
type Config struct {
	Topic       string
	MessageSize int     // bytes (the paper uses 1 KB)
	RatePerSec  float64 // offered producer rate
	// SampleMessages is how many real messages to drive through the
	// service for calibration (default 5000).
	SampleMessages int
	// SCM indicates the topic runs with the persistent-memory cache
	// (hardware Set-2), which changes the modelled journal device.
	SCM bool
}

// Result is one benchmark point's measurements.
type Result struct {
	OfferedRate float64
	// Throughput is the sustained message rate the service absorbs.
	Throughput float64
	// Mean is the modelled end-to-end produce ack latency.
	Mean      time.Duration
	Sent      int
	Saturated bool
}

// Run drives one benchmark point against the streaming service.
func Run(svc *streamsvc.Service, cfg Config) (Result, error) {
	if cfg.MessageSize <= 0 {
		cfg.MessageSize = 1024
	}
	if cfg.SampleMessages <= 0 {
		cfg.SampleMessages = 5000
	}
	p := svc.Producer("")
	payload := make([]byte, cfg.MessageSize)

	// Drive a real sample through the full service path, pacing the
	// virtual clock at the offered rate so quota and recency logic see
	// realistic time.
	interarrival := time.Duration(float64(time.Second) / cfg.RatePerSec)
	var ackSum time.Duration
	for i := 0; i < cfg.SampleMessages; i++ {
		svc.Clock().Advance(interarrival)
		key := []byte(fmt.Sprintf("k%d", i))
		_, cost, err := p.Send(cfg.Topic, key, payload)
		if err != nil {
			return Result{}, err
		}
		ackSum += cost
	}
	baseAck := ackSum / time.Duration(cfg.SampleMessages)

	// Analytic extension: the journal device's bandwidth bounds
	// sustainable throughput; arrivals beyond it queue.
	journal := sim.Spec(sim.NVMeSSD)
	if cfg.SCM {
		journal = sim.Spec(sim.SCM)
	}
	perMsgTransfer := time.Duration(float64(cfg.MessageSize) / float64(journal.WriteBandwidth) * float64(time.Second))
	capacity := 1 / perMsgTransfer.Seconds()
	rho := cfg.RatePerSec / capacity
	saturated := rho >= 1
	if rho > 0.99 {
		rho = 0.99
	}
	// Queueing wait (M/M/1-shaped) on the journal bandwidth.
	wait := time.Duration(float64(perMsgTransfer) * rho / (1 - rho))
	// Group commit: at high rates, messages arriving during an
	// in-flight journal write batch together; the fixed write latency
	// amortizes, but each message waits for its batch to fill.
	batch := cfg.RatePerSec * journal.WriteLatency.Seconds()
	if batch < 1 {
		batch = 1
	}
	batchDelay := time.Duration((batch - 1) * perMsgTransfer.Seconds() * float64(time.Second))

	model := baseAck + wait + batchDelay
	res := Result{
		OfferedRate: cfg.RatePerSec,
		Throughput:  cfg.RatePerSec,
		Mean:        model,
		Sent:        cfg.SampleMessages,
		Saturated:   saturated,
	}
	if saturated {
		res.Throughput = capacity
	}
	return res, nil
}
