// Package repair implements the background data-reconstruction service
// of the store layer (Section III): when degraded writes leave PLog
// replicas or EC shards stale — a disk died mid-workload, a transient
// write error was absorbed — the repair service re-replicates and
// re-encodes the missing redundancy onto healthy disks. Reconstruction
// I/O is charged to the simulated devices through the pool's repair
// primitives, so the Figure-14-style reconstruction experiments exercise
// real failure machinery: source reads, rebuild writes, and the erasure
// decoder itself. Repairs that hit faults of their own (the injector
// also covers repair I/O) are retried with exponential backoff in
// virtual time, bounded per round.
package repair

import (
	"sync"
	"time"

	"streamlake/internal/obs"
	"streamlake/internal/plog"
	"streamlake/internal/sim"
)

// The retry policy: one log is tried at most maxAttempts times per
// round, and the virtual-time backoff between two tries starts at
// firstBackoff and doubles per retry.
const (
	maxAttempts  = 6
	firstBackoff = time.Millisecond
)

// Report summarizes one repair pass.
type Report struct {
	LogsScanned   int
	LogsRepaired  int
	LogsFailed    int   // still stale after maxAttempts
	RepairedBytes int64 // stale bytes restored
	Attempts      int64
	Cost          time.Duration // modelled reconstruction I/O
	Backoff       time.Duration // virtual time spent backing off
}

// Stats accumulates repair activity across passes.
type Stats struct {
	Rounds        int64
	RepairedBytes int64
	Attempts      int64
	Failures      int64
	Cost          time.Duration
	Backoff       time.Duration
}

// Service scans a PLog manager for stale logs and repairs them.
type Service struct {
	clock *sim.Clock
	mgr   *plog.Manager

	mu      sync.Mutex
	stats   Stats
	metrics repairMetrics
}

// repairMetrics is the repair service's obs instrument set; wired once
// by SetObs, nil-safe no-ops until then.
type repairMetrics struct {
	roundLat *obs.Histogram
}

// SetObs registers repair telemetry with the registry: the round
// latency histogram, and counters read from Stats at scrape time.
func (s *Service) SetObs(reg *obs.Registry) {
	s.mu.Lock()
	s.metrics = repairMetrics{roundLat: reg.Histogram("repair_round_seconds")}
	s.mu.Unlock()
	reg.CounterFunc("repair_rounds_total", func() int64 { return s.Stats().Rounds })
	reg.CounterFunc("repair_repaired_bytes_total", func() int64 { return s.Stats().RepairedBytes })
	reg.CounterFunc("repair_attempts_total", func() int64 { return s.Stats().Attempts })
	reg.CounterFunc("repair_failures_total", func() int64 { return s.Stats().Failures })
}

// New builds a repair service over the manager's logs.
func New(clock *sim.Clock, mgr *plog.Manager) *Service {
	return &Service{clock: clock, mgr: mgr}
}

// RunOnce performs one repair pass: every stale log is repaired with up
// to maxAttempts tries, exponential backoff between tries, all charged
// to the virtual clock. Logs that still fail are left stale for the
// next pass.
func (s *Service) RunOnce() Report {
	var rep Report
	for _, l := range s.mgr.StaleLogs() {
		rep.LogsScanned++
		repaired := false
		for attempt := 0; attempt < maxAttempts; attempt++ {
			rep.Attempts++
			n, cost, err := l.RepairStale()
			rep.RepairedBytes += n
			rep.Cost += cost
			s.clock.Advance(cost)
			if err == nil {
				repaired = true
				break
			}
			if attempt+1 < maxAttempts { // no retry follows the last try
				backoff := firstBackoff << attempt
				s.clock.Advance(backoff)
				rep.Backoff += backoff
			}
		}
		if repaired {
			rep.LogsRepaired++
		} else {
			rep.LogsFailed++
		}
	}
	s.mu.Lock()
	s.stats.Rounds++
	s.stats.RepairedBytes += rep.RepairedBytes
	s.stats.Attempts += rep.Attempts
	s.stats.Failures += int64(rep.LogsFailed)
	s.stats.Cost += rep.Cost
	s.stats.Backoff += rep.Backoff
	m := s.metrics
	s.mu.Unlock()
	m.roundLat.Observe(rep.Cost + rep.Backoff)
	return rep
}

// RunUntilRedundant runs repair passes until every log is fully
// redundant or maxRounds passes have run. It reports the merged result
// and whether full redundancy was restored.
func (s *Service) RunUntilRedundant(maxRounds int) (Report, bool) {
	if maxRounds <= 0 {
		maxRounds = 1
	}
	var total Report
	for round := 0; round < maxRounds; round++ {
		rep := s.RunOnce()
		total.LogsScanned += rep.LogsScanned
		total.LogsRepaired += rep.LogsRepaired
		total.RepairedBytes += rep.RepairedBytes
		total.Attempts += rep.Attempts
		total.Cost += rep.Cost
		total.Backoff += rep.Backoff
		if s.mgr.DegradedCount() == 0 {
			return total, true
		}
	}
	total.LogsFailed = s.mgr.DegradedCount()
	return total, s.mgr.DegradedCount() == 0
}

// Pending reports how many logs currently await repair.
func (s *Service) Pending() int { return s.mgr.DegradedCount() }

// Stats snapshots cumulative repair activity.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
