// Package tenant is the lake's multi-tenancy and QoS plane: tenant
// identities with per-tenant quotas (capacity bytes, IOPS, bandwidth)
// enforced by deterministic virtual-time token buckets, weighted-fair
// scheduling of shared resources (the data bus links and the pool
// admission point), and priority-ordered load shedding under overload.
//
// Everything is driven by explicit virtual-time values from the sim
// clock, so two runs with the same seed admit, throttle, and delay the
// same requests in the same order — the bit-identical-replay property
// the chaos harness enforces. The empty tenant name "" is the system
// identity (internal services, untenanted callers): it is exempt from
// quotas and scheduling. This package alone decides what is metered: a
// registry that declares no tenant runs every name as the system
// identity, and declaring the first tenant — at construction or through
// Set — turns metering on (Resolve).
package tenant

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"streamlake/internal/obs"
)

// Config is one tenant's QoS contract.
type Config struct {
	// Name identifies the tenant; it arrives at the gateway as the
	// bearer principal's tenant and rides every span and metric label.
	Name string
	// Weight is the tenant's weighted-fair share of shared resources
	// within its bus priority class (default 1).
	Weight int
	// Priority orders load shedding under overload: when a worker's
	// circuit breaker is open, tenants with a larger Priority value are
	// shed (429) first, keeping the remaining capacity for the most
	// protected (lowest-valued) tier. 0 is the most protected.
	Priority int
	// CapacityBytes caps the tenant's durably stored bytes; 0 = unlimited.
	// Charged at durable append, credited when conversion reclaims the
	// stream copy.
	CapacityBytes int64
	// IOPS caps appended records per virtual second; 0 = unlimited.
	IOPS int64
	// BandwidthBps caps appended bytes per virtual second; 0 = unlimited.
	BandwidthBps int64
}

func (c Config) withDefaults() Config {
	if c.Weight <= 0 {
		c.Weight = 1
	}
	return c
}

// Errors reported by tenant admission.
var (
	// ErrUnknown means the tenant name is not in the registry — the
	// gateway maps it to 401.
	ErrUnknown = errors.New("tenant: unknown tenant")
	// ErrOverQuota means a quota bucket (IOPS, bandwidth, or capacity)
	// rejected the request — the gateway maps it to 429 + Retry-After.
	ErrOverQuota = errors.New("tenant: quota exceeded")
	// ErrShed means admission control shed the request under overload —
	// also 429 + Retry-After, but the remedy is the service healing, not
	// the tenant slowing down.
	ErrShed = errors.New("tenant: shed under overload")
)

// Kind classifies a QuotaError.
type Kind int

// The rejection kinds.
const (
	KindIOPS Kind = iota
	KindBandwidth
	KindCapacity
	KindShed
)

func (k Kind) String() string {
	switch k {
	case KindIOPS:
		return "iops"
	case KindBandwidth:
		return "bandwidth"
	case KindCapacity:
		return "capacity"
	default:
		return "shed"
	}
}

// QuotaError is an admission rejection carrying the virtual-time hint
// after which the request is worth retrying.
type QuotaError struct {
	Tenant     string
	Kind       Kind
	RetryAfter time.Duration
}

func (e *QuotaError) Error() string {
	if e.Kind == KindShed {
		return fmt.Sprintf("tenant %q: shed under overload, retry after %v", e.Tenant, e.RetryAfter)
	}
	return fmt.Sprintf("tenant %q: %s quota exceeded, retry after %v", e.Tenant, e.Kind, e.RetryAfter)
}

// Is matches ErrOverQuota for quota kinds and ErrShed for sheds, so
// callers can branch with errors.Is without unpacking the struct.
func (e *QuotaError) Is(target error) bool {
	if e.Kind == KindShed {
		return target == ErrShed
	}
	return target == ErrOverQuota
}

// bucket is a virtual-time token bucket: tokens accrue at rate per
// second of virtual time, capped at one second's burst.
type bucket struct {
	tokens float64
	last   time.Duration
}

// take refills the bucket to now and consumes need tokens; on a
// shortfall it consumes nothing and returns the virtual time until the
// deficit refills.
func (b *bucket) take(now time.Duration, rate float64, need float64) (time.Duration, bool) {
	if rate <= 0 {
		return 0, true
	}
	elapsed := now - b.last
	b.last = now
	if elapsed > 0 {
		b.tokens += elapsed.Seconds() * rate
	}
	if b.tokens > rate {
		b.tokens = rate // one-second burst cap
	}
	if b.tokens < need {
		wait := time.Duration((need - b.tokens) / rate * float64(time.Second))
		return wait, false
	}
	b.tokens -= need
	return 0, true
}

// refund returns tokens to the bucket (a deduplicated batch's charge),
// still honoring the burst cap.
func (b *bucket) refund(rate float64, n float64) {
	if rate <= 0 {
		return
	}
	b.tokens += n
	if b.tokens > rate {
		b.tokens = rate
	}
}

// Stats counts one tenant's admission outcomes.
type Stats struct {
	Admitted        int64 // batches admitted
	AdmittedOps     int64
	AdmittedBytes   int64
	Throttled       int64 // IOPS/bandwidth rejections
	CapacityRejects int64
	Shed            int64 // overload sheds
	RefundedOps     int64 // ops refunded for deduplicated (retried) batches
	RefundedBytes   int64
	StoredBytes     int64         // current capacity charge
	WFQDelay        time.Duration // cumulative weighted-fair queuing delay imposed
}

// Status is one tenant's contract plus its counters, for lakectl and
// the gateway's admin endpoint.
type Status struct {
	Config
	Stats
}

// state is the registry's per-tenant record.
type state struct {
	cfg   Config
	iops  bucket
	bw    bucket
	stats Stats
}

// Registry holds every tenant's contract, buckets, and counters.
type Registry struct {
	mu  sync.Mutex
	ten map[string]*state
	reg *obs.Registry // retained so tenants added later get instruments
}

// NewRegistry builds a registry from tenant configs, applying defaults
// and rejecting duplicate or empty names. Buckets start full.
func NewRegistry(cfgs []Config) (*Registry, error) {
	r := &Registry{ten: make(map[string]*state)}
	for _, c := range cfgs {
		if _, dup := r.ten[c.Name]; dup {
			return nil, fmt.Errorf("tenant: duplicate tenant %q", c.Name)
		}
		if err := r.Set(c); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Set adds or updates a tenant's contract at runtime (lakectl tenant
// set). An update keeps the tenant's counters and bucket levels; only
// the contract changes.
func (r *Registry) Set(c Config) error {
	if c.Name == "" {
		return errors.New("tenant: tenant name must be non-empty")
	}
	c = c.withDefaults()
	r.mu.Lock()
	defer r.mu.Unlock()
	if st, ok := r.ten[c.Name]; ok {
		st.cfg = c
		return nil
	}
	st := &state{cfg: c}
	st.iops.tokens = float64(c.IOPS)
	st.bw.tokens = float64(c.BandwidthBps)
	r.wireLocked(st)
	r.ten[c.Name] = st
	return nil
}

// SetObs publishes every tenant's Stats on /metrics, read at scrape
// time and labelled by tenant name so every tenant's admission and
// scheduling activity is separable. Call at wiring time; tenants added
// later inherit the registry.
func (r *Registry) SetObs(reg *obs.Registry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reg = reg
	for _, name := range r.namesLocked() {
		r.wireLocked(r.ten[name])
	}
}

func (r *Registry) wireLocked(st *state) {
	if r.reg == nil {
		return
	}
	name := st.cfg.Name
	label := `{tenant="` + name + `"}`
	stats := func() Stats {
		s, _ := r.StatsOf(name)
		return s
	}
	r.reg.CounterFunc("tenant_admitted_total"+label, func() int64 { return stats().Admitted })
	r.reg.CounterFunc("tenant_admitted_bytes_total"+label, func() int64 { return stats().AdmittedBytes })
	r.reg.CounterFunc("tenant_throttled_total"+label, func() int64 { s := stats(); return s.Throttled + s.CapacityRejects })
	r.reg.CounterFunc("tenant_shed_total"+label, func() int64 { return stats().Shed })
	r.reg.CounterFunc("tenant_wfq_delay_ns_total"+label, func() int64 { return int64(stats().WFQDelay) })
	r.reg.GaugeFunc("tenant_stored_bytes"+label, func() float64 { return float64(stats().StoredBytes) })
}

func (r *Registry) namesLocked() []string {
	names := make([]string, 0, len(r.ten))
	for n := range r.ten {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Resolve names the identity a request for tenant name runs as: the
// system identity "" while no tenant is declared, name itself when it
// is registered, and ErrUnknown otherwise — the token maps to no
// contract.
func (r *Registry) Resolve(name string) (string, error) {
	if name == "" {
		return "", nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if st, err := r.lookupLocked(name); st == nil {
		return "", err
	}
	return name, nil
}

// lookupLocked is the metering rule: no state (and no error) for the
// system identity and for every name while no tenant is declared, the
// tenant's state when it is registered, ErrUnknown otherwise.
func (r *Registry) lookupLocked(name string) (*state, error) {
	if name == "" || len(r.ten) == 0 {
		return nil, nil
	}
	st, ok := r.ten[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknown, name)
	}
	return st, nil
}

// Get returns a tenant's contract.
func (r *Registry) Get(name string) (Config, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.ten[name]
	if !ok {
		return Config{}, false
	}
	return st.cfg, true
}

// Admit charges one produce batch (ops records, bytes payload) against
// the tenant's IOPS and bandwidth buckets at virtual time now. Either
// both buckets are charged or neither: a rejection consumes nothing and
// returns a QuotaError carrying the refill wait. What Resolve runs as
// the system identity is exempt; unknown tenants get ErrUnknown.
func (r *Registry) Admit(name string, now time.Duration, ops int, bytes int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, err := r.lookupLocked(name)
	if st == nil {
		return err
	}
	iw, iok := st.iops.take(now, float64(st.cfg.IOPS), float64(ops))
	if !iok {
		st.stats.Throttled++
		return &QuotaError{Tenant: name, Kind: KindIOPS, RetryAfter: iw}
	}
	bw, bok := st.bw.take(now, float64(st.cfg.BandwidthBps), float64(bytes))
	if !bok {
		// All-or-nothing: give the IOPS charge back.
		st.iops.refund(float64(st.cfg.IOPS), float64(ops))
		st.stats.Throttled++
		return &QuotaError{Tenant: name, Kind: KindBandwidth, RetryAfter: bw}
	}
	st.stats.Admitted++
	st.stats.AdmittedOps += int64(ops)
	st.stats.AdmittedBytes += bytes
	return nil
}

// Refund returns an admitted batch's IOPS and bandwidth tokens — the
// stream object detected the batch as a duplicate (an idempotent
// retry), so the work was never done and must not be charged twice.
func (r *Registry) Refund(name string, ops int, bytes int64) {
	if name == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.ten[name]
	if !ok {
		return
	}
	st.iops.refund(float64(st.cfg.IOPS), float64(ops))
	st.bw.refund(float64(st.cfg.BandwidthBps), float64(bytes))
	st.stats.RefundedOps += int64(ops)
	st.stats.RefundedBytes += bytes
}

// ChargeCapacity charges durably stored bytes against the tenant's
// capacity quota, rejecting the whole batch when it would overflow.
// Called at durable append, after the dedup window has ruled the batch
// new, so a retried batch is charged exactly once.
func (r *Registry) ChargeCapacity(name string, bytes int64) error {
	if bytes <= 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st, err := r.lookupLocked(name)
	if st == nil {
		return err
	}
	if st.cfg.CapacityBytes > 0 && st.stats.StoredBytes+bytes > st.cfg.CapacityBytes {
		st.stats.CapacityRejects++
		return &QuotaError{Tenant: name, Kind: KindCapacity}
	}
	st.stats.StoredBytes += bytes
	return nil
}

// CreditCapacity releases stored bytes (stream-copy reclamation after
// conversion, or the rollback of a charge whose append never happened).
func (r *Registry) CreditCapacity(name string, bytes int64) {
	if name == "" || bytes <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.ten[name]
	if !ok {
		return
	}
	st.stats.StoredBytes -= bytes
	if st.stats.StoredBytes < 0 {
		st.stats.StoredBytes = 0
	}
}

// ShouldShed reports whether admission control sheds this tenant under
// overload: every tenant whose shed priority is worse (numerically
// larger) than the best registered priority yields first, so the most
// protected tier keeps the remaining capacity. With a single priority
// tier nobody is shed ahead of anyone else.
func (r *Registry) ShouldShed(name string) bool {
	if name == "" {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.ten[name]
	if !ok {
		return false
	}
	best := st.cfg.Priority
	for _, other := range r.ten {
		if other.cfg.Priority < best {
			best = other.cfg.Priority
		}
	}
	return st.cfg.Priority > best
}

// Shed records one overload shed and returns the 429 error carrying the
// retry hint (typically the open breaker's remaining cooldown).
func (r *Registry) Shed(name string, retryAfter time.Duration) error {
	r.mu.Lock()
	if st, ok := r.ten[name]; ok {
		st.stats.Shed++
	}
	r.mu.Unlock()
	return &QuotaError{Tenant: name, Kind: KindShed, RetryAfter: retryAfter}
}

// noteWFQ accounts weighted-fair queuing delay imposed on a tenant.
func (r *Registry) noteWFQ(name string, d time.Duration) {
	if name == "" || d <= 0 {
		return
	}
	r.mu.Lock()
	if st, ok := r.ten[name]; ok {
		st.stats.WFQDelay += d
	}
	r.mu.Unlock()
}

// shareOf returns the tenant's weight and the total registered weight —
// the WFQ share computation. ok is false for unknown tenants.
func (r *Registry) shareOf(name string) (w, total int, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, found := r.ten[name]
	for _, other := range r.ten {
		total += other.cfg.Weight
	}
	if !found {
		return 0, total, false
	}
	return st.cfg.Weight, total, true
}

// StatsOf snapshots one tenant's counters.
func (r *Registry) StatsOf(name string) (Stats, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.ten[name]
	if !ok {
		return Stats{}, false
	}
	return st.stats, true
}

// Status snapshots every tenant's contract and counters, sorted by
// name — the lakectl and gateway admin view.
func (r *Registry) Status() []Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Status, 0, len(r.ten))
	for _, name := range r.namesLocked() {
		st := r.ten[name]
		out = append(out, Status{Config: st.cfg, Stats: st.stats})
	}
	return out
}
