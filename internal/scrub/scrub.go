// Package scrub implements the background data scrubber of the store
// layer: a virtual-time service that periodically re-reads every copy
// of every PLog extent — the whole redundancy set, not just the quorum
// a read would touch — and verifies its block checksum. Latent
// corruption that no foreground read would ever hit (a bit flip on the
// third replica, a rotted parity shard) is detected here, quarantined
// as stale, and handed to the repair service for reconstruction,
// closing the detect→repair loop the paper's durability story depends
// on. Scanning is rate-limited: verification reads are charged to the
// placement disks and the pass additionally paces itself to a
// configured bandwidth in virtual time, so scrubbing shows up in the
// simulation as background I/O load rather than a free pass.
//
// A pass can be bounded by a byte budget; the scrubber keeps a cursor
// and resumes where it left off, so repeated small passes cycle the
// whole population the way production scrubbers spread a full sweep
// over days.
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

// Config tunes the scrubber.
type Config struct {
	// BytesPerPass bounds how many verification bytes one RunOnce scans
	// before parking the cursor (0 = scan every log once per pass).
	BytesPerPass int64
	// Rate is the scrub bandwidth in bytes per second of virtual time
	// (default 64 MiB/s). Each pass advances the clock so the scanned
	// bytes take Bytes/Rate wall time, on top of the device read costs.
	Rate int64
	// Repair, when true, runs the repair service inline after a pass
	// that found mismatches, so detection and reconstruction complete
	// in one call (default true when a repair service is wired).
	Repair bool
	// RepairRounds bounds the inline repair passes (default 4).
	RepairRounds int
}

func (c *Config) applyDefaults() {
	if c.Rate <= 0 {
		c.Rate = 64 << 20
	}
	if c.RepairRounds <= 0 {
		c.RepairRounds = 4
	}
}

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
	FullCycle      bool          // the pass covered every live log
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
	cfg   Config

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

// New builds a scrubber over the manager's logs. rep may be nil, in
// which case corrupt copies are only quarantined and the caller drives
// repair separately.
func New(clock *sim.Clock, mgr *plog.Manager, rep *repair.Service, cfg Config) *Service {
	cfg.applyDefaults()
	if rep == nil {
		cfg.Repair = false
	}
	return &Service{clock: clock, mgr: mgr, rep: rep, cfg: cfg}
}

// RunOnce performs one scrub pass: starting after the cursor (wrapping
// around), it verifies whole logs until the byte budget is spent or
// every live log has been covered, charges the verification I/O and
// pacing to the virtual clock, and — if enabled — repairs what it
// found. The cursor parks on the last log scanned.
func (s *Service) RunOnce() (Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runOnceLocked()
}

func (s *Service) runOnceLocked() (Report, error) {
	var rep Report
	ids := s.scanOrder()
	for _, id := range ids {
		l := s.mgr.Get(id)
		if l == nil { // destroyed since the snapshot
			continue
		}
		res, err := l.Scrub()
		if err != nil {
			return rep, err
		}
		rep.LogsScanned++
		rep.ExtentsChecked += res.Extents
		rep.BytesScanned += res.Bytes
		rep.Mismatches += res.Mismatches
		rep.SkippedCopies += res.SkippedCopies
		rep.Cost += res.Cost
		s.cursor = id
		if s.cfg.BytesPerPass > 0 && rep.BytesScanned >= s.cfg.BytesPerPass {
			break
		}
	}
	rep.FullCycle = rep.LogsScanned == len(ids)
	// Charge the pass: device read costs plus bandwidth pacing.
	pacing := time.Duration(float64(rep.BytesScanned) / float64(s.cfg.Rate) * float64(time.Second))
	rep.Elapsed = rep.Cost + pacing
	s.clock.Advance(rep.Elapsed)
	// Repair what this pass quarantined — and anything already pending
	// (e.g. copies a foreground read quarantined between passes).
	if s.cfg.Repair && (rep.Mismatches > 0 || s.rep.Pending() > 0) {
		before := s.rep.Stats().RepairedBytes
		s.rep.RunUntilRedundant(s.cfg.RepairRounds)
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
	return rep, nil
}

// RunCycle runs passes until every live log has been scanned at least
// once (one full population sweep), merging the reports. With no byte
// budget this is a single pass.
func (s *Service) RunCycle() (Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Budgeted passes scan consecutive logs of the sorted cycle, so the
	// sweep is complete once as many logs were scanned as are live.
	target := s.mgr.Count()
	var total Report
	for {
		rep, err := s.runOnceLocked()
		total.LogsScanned += rep.LogsScanned
		total.ExtentsChecked += rep.ExtentsChecked
		total.BytesScanned += rep.BytesScanned
		total.Mismatches += rep.Mismatches
		total.SkippedCopies += rep.SkippedCopies
		total.RepairedBytes += rep.RepairedBytes
		total.Cost += rep.Cost
		total.Elapsed += rep.Elapsed
		if err != nil {
			return total, err
		}
		if rep.FullCycle || total.LogsScanned >= target {
			total.FullCycle = true
			return total, nil
		}
		if rep.LogsScanned == 0 { // population vanished mid-cycle
			return total, nil
		}
	}
}

// scanOrder returns the live log IDs in scan order: ascending, rotated
// to start just after the cursor, so bounded passes cycle the whole
// population.
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
