package plog

import (
	"sync"
	"time"

	"streamlake/internal/obs"
)

// Hedged reads ("The Tail at Scale"): when the primary replica of a
// Replicate-policy read comes back slower than a quantile-derived
// threshold of recent read latencies, the read races a second healthy
// replica that notionally started after that threshold delay. The
// requester observes min(primary, threshold + secondary); the device
// time of both reads stays charged, because hedging buys tail latency
// with extra I/O. Erasure-coded reads already fan out to K shards and
// are not hedged.

// HedgeConfig tunes hedged replica reads for a manager's logs.
type HedgeConfig struct {
	// Enabled turns hedging on.
	Enabled bool
	// Quantile of recent primary-read latencies used as the hedge delay
	// (default 0.95).
	Quantile float64
	// MinSamples is how many primary reads must be observed before the
	// quantile is trusted (default 32). Until then nothing is hedged.
	MinSamples int64
}

func (c HedgeConfig) withDefaults() HedgeConfig {
	if c.Quantile <= 0 || c.Quantile >= 1 {
		c.Quantile = 0.95
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 32
	}
	return c
}

// hedgeFloor is the minimum hedge delay: primaries faster than this are
// never hedged, keeping healthy fast reads hedge-free regardless of how
// tight the latency distribution gets.
const hedgeFloor = 500 * time.Microsecond

// HedgeStats counts hedging activity across a manager's logs.
type HedgeStats struct {
	Hedged int64         // reads that issued a hedge request
	Wins   int64         // hedges that beat the primary
	Saved  time.Duration // requester latency saved by winning hedges
}

// hedgeState is the manager-wide hedging state shared by its logs, the
// same lifetime trick as logMetrics: logs hold a pointer, the manager
// owns the value.
type hedgeState struct {
	mu    sync.Mutex
	cfg   HedgeConfig
	hist  obs.HistogramSnapshot // primary-read latencies (pre-hedge), under mu
	stats HedgeStats
}

// threshold observes one primary-read latency and returns the hedge
// delay to race it against, or -1 when this read must not hedge
// (disabled, cold tracker, or primary under the floor).
func (hs *hedgeState) threshold(primary time.Duration) time.Duration {
	hs.mu.Lock()
	hs.hist.Observe(primary)
	if !hs.cfg.Enabled || hs.hist.Count < hs.cfg.MinSamples {
		hs.mu.Unlock()
		return -1
	}
	h := max(hs.hist.Quantile(hs.cfg.Quantile), hedgeFloor)
	hs.mu.Unlock()
	if primary <= h {
		return -1 // primary answered within the hedge window
	}
	return h
}

func (hs *hedgeState) record(won bool, saved time.Duration) {
	hs.mu.Lock()
	hs.stats.Hedged++
	if won {
		hs.stats.Wins++
		hs.stats.Saved += saved
	}
	hs.mu.Unlock()
}

// SetHedge configures hedged replica reads for every log of the
// manager (defaults applied; see HedgeConfig).
func (m *Manager) SetHedge(cfg HedgeConfig) {
	m.hedge.mu.Lock()
	m.hedge.cfg = cfg.withDefaults()
	m.hedge.mu.Unlock()
}

// HedgeStats snapshots the manager-wide hedging counters.
func (m *Manager) HedgeStats() HedgeStats {
	m.hedge.mu.Lock()
	defer m.hedge.mu.Unlock()
	return m.hedge.stats
}

// hedgeLocked races a second replica against a slow primary. Caller
// holds l.mu and has already verified copy `primary` (index into
// l.slices) at cost primaryCost. devN is the physical device bytes one
// copy read costs (== n on a raw log, the compressed whole-extent size
// on a compressed one) and decCost the decompress CPU the hedge replica
// would pay on top of its device read. It returns how much requester
// latency the hedge saved (0 when it lost or no second replica was
// usable).
func (l *PLog) hedgeLocked(primary int, offset, n, devN int64, decCost, primaryCost time.Duration) time.Duration {
	if l.hedge == nil || l.red.Kind != Replicate {
		return 0
	}
	h := l.hedge.threshold(primaryCost)
	if h < 0 {
		return 0
	}
	for j, s := range l.slices {
		if j == primary || l.missingIn(j, offset, n) {
			continue // quarantined/degraded ranges can never win the race
		}
		if l.pool.DiskFailed(s.Disk) {
			continue // a hedge against a dead disk is a guaranteed loss
		}
		if l.pool.DiskAvoided(s.Disk) {
			// The disk sits on a suspect, dead, or draining node: its
			// copy may already be stale and the read would ride a link
			// the failure detector distrusts. Never hedge there.
			continue
		}
		d2, rerr := l.pool.Read(s.ID, devN)
		if rerr != nil {
			continue
		}
		d2 += decCost
		if bad := l.verifyCopyRange(j, offset, n); len(bad) > 0 {
			l.quarantine(j, bad)
			continue
		}
		var saved time.Duration
		if eff := h + d2; eff < primaryCost {
			saved = primaryCost - eff
		}
		l.hedge.record(saved > 0, saved)
		return saved
	}
	return 0
}
