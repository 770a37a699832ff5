// Package tiering implements the data service layer's tiering service
// (Section III): the policy that drains cold logs from the SSD pool to
// the HDD pool. Tiering is one of the levers behind the paper's TCO
// claim — cold stream/table data automatically drains to cheap media
// without an external archive system. Which pool a log is on is its
// placement, and plog.Migrate, which charges the move, is the only
// thing that changes it: the service keeps no tier per log, only an
// idle clock per sealed log on the SSD pool. The archive tier is
// convert.Archiver's; the service counts the bytes it landed there.
package tiering

import (
	"sort"
	"strconv"
	"sync"
	"time"

	"streamlake/internal/obs"
	"streamlake/internal/plog"
	"streamlake/internal/pool"
	"streamlake/internal/sim"
)

// Tier identifies a storage temperature level.
type Tier int

const (
	// SSD holds hot data.
	SSD Tier = iota
	// HDD holds warm data.
	HDD
	// Archive holds cold data: the bytes convert.Archiver landed (the
	// stream configuration's archive block, Figure 8).
	Archive
)

// CostPerGBMonth is a relative media cost model used in TCO reporting:
// HDD is ~4x cheaper than SSD per byte, archive ~10x.
func (t Tier) CostPerGBMonth() float64 {
	switch t {
	case HDD:
		return 0.02
	case Archive:
		return 0.008
	default: // SSD
		return 0.08
	}
}

// demoteAfter is the dynamic migration policy: a sealed log idle on the
// SSD pool for demoteAfter moves to the HDD pool.
const demoteAfter = time.Hour

// Migration records one completed move from the SSD to the HDD pool.
type Migration struct {
	ID   plog.ID
	Size int64 // the log's logical bytes
}

// Service applies the policy to the logs of one plog.Manager, whose pool
// is the SSD tier.
type Service struct {
	clock *sim.Clock
	logs  *plog.Manager
	hdd   *pool.Pool

	mu        sync.Mutex
	idleSince map[plog.ID]time.Duration // sealed SSD logs: when a pass first saw each
	archived  int64                     // bytes convert.Archiver landed
	migrated  int64                     // bytes moved so far
	evictions int64
}

// NewService builds a tiering service that drains logs' sealed logs to
// hdd on clock's time.
func NewService(clock *sim.Clock, logs *plog.Manager, hdd *pool.Pool) *Service {
	return &Service{clock: clock, logs: logs, hdd: hdd, idleSince: make(map[plog.ID]time.Duration)}
}

// RunOnce looks at every sealed log on the SSD pool and moves to the HDD
// pool each one that is fully redundant and has sat there idle for
// demoteAfter since the first pass that saw it. It returns the moves in
// log-ID order and the sum of their plog.Migrate costs; deciding them
// is free. A log with stale copies, or whose move fails (the HDD pool
// is full, say), stays on the SSD pool, so the next pass tries it
// again. Each move is a tiering.migrate child of sp with the log, its
// raw (logical) and stored (physical) bytes; a nil sp traces nothing.
func (s *Service) RunOnce(sp *obs.Span) ([]Migration, time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock.Now()
	ssd := s.logs.Pool()
	var due []plog.ID
	seen := make(map[plog.ID]time.Duration, len(s.idleSince))
	for _, info := range s.logs.Logs() {
		if !info.Sealed || info.Pool != ssd {
			continue
		}
		since, ok := s.idleSince[info.ID]
		if !ok {
			since = now
		}
		seen[info.ID] = since
		if now-since >= demoteAfter {
			due = append(due, info.ID)
		}
	}
	s.idleSince = seen
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	var out []Migration
	var total time.Duration
	for _, id := range due {
		lg := s.logs.Get(id)
		if lg == nil || !lg.FullyRedundant() {
			continue // reclaimed since, or it moves once repaired
		}
		cost, err := lg.Migrate(s.hdd)
		if err != nil {
			continue
		}
		m := Migration{ID: id, Size: lg.Size()}
		if c := sp.Child("tiering.migrate"); c != nil {
			c.SetAttr("log", strconv.FormatInt(int64(id), 10))
			c.SetAttr("raw", strconv.FormatInt(m.Size, 10))
			c.SetAttr("stored", strconv.FormatInt(lg.PhysicalBytes(), 10))
			c.End(cost)
		}
		sp.Advance(cost)
		total += cost
		out = append(out, m)
		s.migrated += m.Size
		s.evictions++
	}
	return out, total
}

// AddArchived counts n bytes convert.Archiver landed in the archive tier.
func (s *Service) AddArchived(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.archived += n
}

// Stats summarizes tier occupancy and monthly media cost.
type Stats struct {
	BytesPerTier  map[Tier]int64
	MigratedBytes int64
	Evictions     int64
	MonthlyCost   float64 // relative cost units from CostPerGBMonth
}

// Stats reads tier occupancy from what holds the bytes: the logical
// sizes of the logs each pool holds, and what the archiver landed.
func (s *Service) Stats() Stats {
	st := Stats{BytesPerTier: map[Tier]int64{}}
	ssd := s.logs.Pool()
	for _, info := range s.logs.Logs() {
		switch info.Pool {
		case ssd:
			st.BytesPerTier[SSD] += info.Size
		case s.hdd:
			st.BytesPerTier[HDD] += info.Size
		}
	}
	s.mu.Lock()
	st.BytesPerTier[Archive] = s.archived
	st.MigratedBytes, st.Evictions = s.migrated, s.evictions
	s.mu.Unlock()
	for tier, b := range st.BytesPerTier {
		st.MonthlyCost += float64(b) / (1 << 30) * tier.CostPerGBMonth()
	}
	return st
}
