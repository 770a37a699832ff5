// Package tiering implements the data service layer's tiering service
// (Section III): the policy that decides dynamic data migration and
// eviction between the SSD and HDD storage pools. Tiering is one of the levers behind the paper's
// TCO claim — cold stream/table data automatically drains to cheap media
// without an external archive system. The service only decides and
// records moves; the layer that performs a move (plog.Migrate, for the
// lake's logs) is the one that charges it.
package tiering

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"streamlake/internal/sim"
)

// Tier identifies a storage temperature level.
type Tier int

const (
	// SSD holds hot data.
	SSD Tier = iota
	// HDD holds warm data.
	HDD
	// Archive holds cold data (the cost-effective archive pool of the
	// stream configuration's archive block, Figure 8).
	Archive
)

// String returns the tier name.
func (t Tier) String() string {
	switch t {
	case SSD:
		return "ssd"
	case HDD:
		return "hdd"
	case Archive:
		return "archive"
	default:
		return fmt.Sprintf("tier-%d", int(t))
	}
}

// CostPerGBMonth is a relative media cost model used in TCO reporting:
// HDD is ~4x cheaper than SSD per byte, archive ~10x.
func (t Tier) CostPerGBMonth() float64 {
	switch t {
	case SSD:
		return 0.08
	case HDD:
		return 0.02
	case Archive:
		return 0.008
	default:
		return 0.08
	}
}

// The dynamic migration policy: SSD items idle for demoteAfter move to
// HDD; HDD items idle for archiveAfter move to Archive.
const (
	demoteAfter  = time.Hour
	archiveAfter = 24 * time.Hour
)

// Item is one tiered unit (a sealed PLog, a table file).
type Item struct {
	ID         string
	Size       int64
	Tier       Tier
	LastAccess time.Duration // virtual time of the last access
}

// Migration records one completed move.
type Migration struct {
	ID       string
	From, To Tier
	Size     int64
}

// Service tracks tiered items and applies the policy.
type Service struct {
	clock *sim.Clock

	mu        sync.Mutex
	items     map[string]*Item
	migrated  int64 // bytes moved so far
	evictions int64
}

// ErrUnknownItem is returned for operations on unregistered items.
var ErrUnknownItem = errors.New("tiering: unknown item")

// NewService builds a tiering service applying the policy on clock's
// time.
func NewService(clock *sim.Clock) *Service {
	return &Service{clock: clock, items: make(map[string]*Item)}
}

// Register starts tracking an item at the given tier.
func (s *Service) Register(id string, size int64, tier Tier) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.items[id] = &Item{ID: id, Size: size, Tier: tier, LastAccess: s.clock.Now()}
}

// TierOf reports an item's current tier.
func (s *Service) TierOf(id string) (Tier, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	it, ok := s.items[id]
	if !ok {
		return 0, ErrUnknownItem
	}
	return it.Tier, nil
}

// RunOnce applies the dynamic policy to every item and returns the
// migrations it decided, in item-ID order. It charges nothing: the
// caller that moves each item's bytes charges the move.
func (s *Service) RunOnce() []Migration {
	now := s.clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	var planned []*Item
	for _, it := range s.items {
		idle := now - it.LastAccess
		switch {
		case it.Tier == SSD && idle >= demoteAfter:
			planned = append(planned, it)
		case it.Tier == HDD && idle >= archiveAfter:
			planned = append(planned, it)
		}
	}
	sort.Slice(planned, func(i, j int) bool { return planned[i].ID < planned[j].ID })
	out := make([]Migration, 0, len(planned))
	for _, it := range planned {
		from, to := it.Tier, HDD
		if from == HDD {
			to = Archive
		}
		it.Tier = to
		s.migrated += it.Size
		s.evictions++
		out = append(out, Migration{ID: it.ID, From: from, To: to, Size: it.Size})
	}
	return out
}

// Stats summarizes tier occupancy and monthly media cost.
type Stats struct {
	BytesPerTier  map[Tier]int64
	MigratedBytes int64
	Evictions     int64
	MonthlyCost   float64 // relative cost units from CostPerGBMonth
}

// Stats returns the service's occupancy snapshot.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{BytesPerTier: map[Tier]int64{}, MigratedBytes: s.migrated, Evictions: s.evictions}
	for _, it := range s.items {
		st.BytesPerTier[it.Tier] += it.Size
	}
	for tier, b := range st.BytesPerTier {
		st.MonthlyCost += float64(b) / (1 << 30) * tier.CostPerGBMonth()
	}
	return st
}
