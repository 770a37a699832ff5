// Package tiering implements the data service layer's tiering and
// replication services (Section III): the policy that decides static
// and dynamic data migration and eviction between the SSD and HDD
// storage pools, plus the periodic replication to a remote site for
// backup and recovery. Tiering is one of the levers behind the paper's
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

// Policy controls dynamic migration: items idle longer than DemoteAfter
// move one tier down; items idle longer than ArchiveAfter move to
// Archive.
type Policy struct {
	DemoteAfter  time.Duration
	ArchiveAfter time.Duration
}

// Item is one tiered unit (a sealed PLog, a table file).
type Item struct {
	ID         string
	Size       int64
	Tier       Tier
	LastAccess time.Duration // virtual time of the last access
	Pinned     bool          // pinned items never migrate (hot topics)
}

// Migration records one completed move.
type Migration struct {
	ID       string
	From, To Tier
	Size     int64
}

// Service tracks tiered items and applies the policy.
type Service struct {
	clock  *sim.Clock
	policy Policy

	mu        sync.Mutex
	items     map[string]*Item
	migrated  int64 // bytes moved so far
	evictions int64
}

// ErrUnknownItem is returned for operations on unregistered items.
var ErrUnknownItem = errors.New("tiering: unknown item")

// NewService builds a tiering service applying policy on clock's time.
func NewService(clock *sim.Clock, policy Policy) *Service {
	return &Service{clock: clock, policy: policy, items: make(map[string]*Item)}
}

// Register starts tracking an item at the given tier.
func (s *Service) Register(id string, size int64, tier Tier) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.items[id] = &Item{ID: id, Size: size, Tier: tier, LastAccess: s.clock.Now()}
}

// Pin excludes an item from migration (crucial topics kept as hot stream
// objects, per Section V-B).
func (s *Service) Pin(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	it, ok := s.items[id]
	if !ok {
		return ErrUnknownItem
	}
	it.Pinned = true
	return nil
}

// Touch records an access, refreshing the item's recency and promoting
// archived/HDD data back to SSD when it becomes hot again (the "dynamic"
// half of the tiering service).
func (s *Service) Touch(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	it, ok := s.items[id]
	if !ok {
		return ErrUnknownItem
	}
	it.LastAccess = s.clock.Now()
	return nil
}

// Promote moves an item to SSD immediately (static migration up).
func (s *Service) Promote(id string) error {
	return s.migrate(id, SSD)
}

// Demote moves an item to the given lower tier immediately (static
// migration down / eviction).
func (s *Service) Demote(id string, to Tier) error {
	return s.migrate(id, to)
}

// migrate records a move of id to tier to. It charges nothing: the
// caller that moves the item's bytes charges the move.
func (s *Service) migrate(id string, to Tier) error {
	// Validate the destination before touching any state, so a failed
	// move never strands the item on a tier nothing serves.
	if to < SSD || to > Archive {
		return fmt.Errorf("tiering: unknown tier %v", to)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	it, ok := s.items[id]
	if !ok {
		return ErrUnknownItem
	}
	if it.Tier == to {
		// Same-tier moves are strict no-ops: no migration bytes
		// registered, no state touched.
		return nil
	}
	it.Tier = to
	s.migrated += it.Size
	return nil
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

// RunOnce applies the dynamic policy to every unpinned item and returns
// the migrations it decided, in item-ID order.
func (s *Service) RunOnce() []Migration {
	now := s.clock.Now()
	s.mu.Lock()
	var planned []*Item
	for _, it := range s.items {
		if it.Pinned {
			continue
		}
		idle := now - it.LastAccess
		switch {
		case it.Tier == SSD && s.policy.DemoteAfter > 0 && idle >= s.policy.DemoteAfter:
			planned = append(planned, it)
		case it.Tier == HDD && s.policy.ArchiveAfter > 0 && idle >= s.policy.ArchiveAfter:
			planned = append(planned, it)
		}
	}
	sort.Slice(planned, func(i, j int) bool { return planned[i].ID < planned[j].ID })
	s.mu.Unlock()

	var out []Migration
	for _, it := range planned {
		var to Tier
		switch it.Tier {
		case SSD:
			to = HDD
		case HDD:
			to = Archive
		default:
			continue
		}
		from := it.Tier
		if err := s.migrate(it.ID, to); err != nil {
			continue
		}
		s.mu.Lock()
		s.evictions++
		s.mu.Unlock()
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

// Replicator is the replication service: periodic full-copy replication
// of registered items to a remote site over the inter-site link.
type Replicator struct {
	link *sim.Device

	mu          sync.Mutex
	replicated  int64
	generations int
}

// NewReplicator builds a replicator over a 10 GbE inter-site link.
func NewReplicator() *Replicator {
	return &Replicator{link: sim.NewDeviceOf("remote-site", sim.Net10GbE)}
}

// Replicate ships every item in the service to the remote site and
// returns the bytes shipped and the modelled transfer time.
func (r *Replicator) Replicate(s *Service) (int64, time.Duration) {
	s.mu.Lock()
	var total int64
	for _, it := range s.items {
		total += it.Size
	}
	s.mu.Unlock()
	cost := r.link.Write(total)
	r.mu.Lock()
	r.replicated += total
	r.generations++
	r.mu.Unlock()
	return total, cost
}

// ReplicatedBytes reports the cumulative bytes shipped off-site.
func (r *Replicator) ReplicatedBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.replicated
}
