// Package scrub implements the background data scrubber of the store
// layer: a virtual-time service that periodically re-reads every copy
// of every PLog extent — the whole redundancy set, not just the quorum
// a read would touch — and verifies its block checksum. Latent
// corruption that no foreground read would ever hit (a bit flip on the
// third replica, a rotted parity shard) is detected here, quarantined
// as stale, and handed to the repair service for reconstruction,
// closing the detect→repair loop the paper's durability story depends
// on. Scanning is rate-limited: verification reads are charged to the
// placement disks and the pass additionally paces itself to a fixed
// bandwidth in virtual time, so scrubbing shows up in the simulation as
// background I/O load rather than a free pass.
//
// Every pass sweeps every live log once, starting just after the log
// the previous pass ended on (the cursor).
package scrub

import (
	"sort"
	"sync"
	"time"

	"streamlake/internal/obs"
	"streamlake/internal/plog"
	"streamlake/internal/repair"
	"streamlake/internal/sim"
)

const (
	// rate is the scrub bandwidth in bytes per second of virtual time:
	// each pass advances the clock so the scanned bytes take
	// bytes/rate, on top of the device read costs.
	rate = 64 << 20
	// repairRounds bounds the inline repair passes after a pass.
	repairRounds = 4
)

// Report summarizes one scrub pass.
type Report struct {
	LogsScanned    int
	ExtentsChecked int           // extent-copies verified
	BytesScanned   int64         // physical bytes read for verification
	Mismatches     int           // corrupt copies found and quarantined
	SkippedCopies  int           // copies left to repair (stale or failed disk)
	RepairedBytes  int64         // restored by the inline repair pass
	Cost           time.Duration // device time of verification reads
	Elapsed        time.Duration // virtual time the pass consumed (cost + pacing)
}

// Stats accumulates scrub activity across passes.
type Stats struct {
	Passes         int64
	LogsScanned    int64
	ExtentsChecked int64
	BytesScanned   int64
	Mismatches     int64
	RepairedBytes  int64
	Elapsed        time.Duration
}

// Service owns the scrub cursor and pacing over one PLog manager.
type Service struct {
	clock *sim.Clock
	mgr   *plog.Manager
	rep   *repair.Service // optional; enables the inline repair pass

	mu      sync.Mutex
	cursor  plog.ID // last log scanned; next pass starts after it
	stats   Stats
	metrics scrubMetrics
}

// scrubMetrics is the scrubber's obs instrument set; wired once by
// SetObs, nil-safe no-ops until then.
type scrubMetrics struct {
	passLat *obs.Histogram
}

// SetObs registers scrub telemetry with the registry: the pass latency
// histogram, and counters read from Stats at scrape time.
func (s *Service) SetObs(reg *obs.Registry) {
	s.mu.Lock()
	s.metrics = scrubMetrics{passLat: reg.Histogram("scrub_pass_seconds")}
	s.mu.Unlock()
	reg.CounterFunc("scrub_passes_total", func() int64 { return s.Stats().Passes })
	reg.CounterFunc("scrub_bytes_verified_total", func() int64 { return s.Stats().BytesScanned })
	reg.CounterFunc("scrub_mismatches_total", func() int64 { return s.Stats().Mismatches })
	reg.CounterFunc("scrub_repaired_bytes_total", func() int64 { return s.Stats().RepairedBytes })
}

// New builds a scrubber over the manager's logs. With a repair service,
// a pass that found mismatches repairs them inline, so detection and
// reconstruction complete in one call; rep may be nil, in which case
// corrupt copies are only quarantined and the caller drives repair
// separately.
func New(clock *sim.Clock, mgr *plog.Manager, rep *repair.Service) *Service {
	return &Service{clock: clock, mgr: mgr, rep: rep}
}

// RunOnce performs one scrub pass: starting after the cursor (wrapping
// around), it verifies every live log, charges the verification I/O and
// pacing to the virtual clock, and — given a repair service — repairs
// what it found. The cursor parks on the last log scanned.
func (s *Service) RunOnce() Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	var rep Report
	for _, id := range s.scanOrder() {
		l := s.mgr.Get(id)
		if l == nil { // destroyed since the snapshot
			continue
		}
		res := l.Scrub()
		rep.LogsScanned++
		rep.ExtentsChecked += res.Extents
		rep.BytesScanned += res.Bytes
		rep.Mismatches += res.Mismatches
		rep.SkippedCopies += res.SkippedCopies
		rep.Cost += res.Cost
		s.cursor = id
	}
	// Charge the pass: device read costs plus bandwidth pacing.
	pacing := time.Duration(float64(rep.BytesScanned) / float64(rate) * float64(time.Second))
	rep.Elapsed = rep.Cost + pacing
	s.clock.Advance(rep.Elapsed)
	// Repair what this pass quarantined — and anything already pending
	// (e.g. copies a foreground read quarantined between passes).
	if s.rep != nil && (rep.Mismatches > 0 || s.rep.Pending() > 0) {
		before := s.rep.Stats().RepairedBytes
		s.rep.RunUntilRedundant(repairRounds)
		rep.RepairedBytes = s.rep.Stats().RepairedBytes - before
	}
	s.stats.Passes++
	s.stats.LogsScanned += int64(rep.LogsScanned)
	s.stats.ExtentsChecked += int64(rep.ExtentsChecked)
	s.stats.BytesScanned += rep.BytesScanned
	s.stats.Mismatches += int64(rep.Mismatches)
	s.stats.RepairedBytes += rep.RepairedBytes
	s.stats.Elapsed += rep.Elapsed
	s.metrics.passLat.Observe(rep.Elapsed)
	return rep
}

// scanOrder returns the live log IDs in scan order: ascending, rotated
// to start just after the cursor.
func (s *Service) scanOrder() []plog.ID {
	infos := s.mgr.Logs()
	ids := make([]plog.ID, 0, len(infos))
	for _, li := range infos {
		ids = append(ids, li.ID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	// Rotate: first ID strictly greater than the cursor starts the pass.
	for i, id := range ids {
		if id > s.cursor {
			return append(ids[i:len(ids):len(ids)], ids[:i]...)
		}
	}
	return ids // cursor at or past the end: wrap to the start
}

// Cursor reports the last log ID scanned, for status displays.
func (s *Service) Cursor() plog.ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cursor
}

// Stats snapshots cumulative scrub activity.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
