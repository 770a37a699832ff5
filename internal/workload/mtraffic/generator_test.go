// Package mtraffic is an open-loop multi-tenant traffic generator: each
// tenant models a population of virtual producers whose sends arrive on
// their own schedule — exponential inter-arrival gaps scaled by a
// sinusoidal diurnal curve — regardless of how the lake responds. The
// generator advances the virtual clock to the earliest pending arrival
// across all tenants, so a run interleaves tenants exactly as an open
// system would: a throttled tenant keeps offering load at its configured
// rate instead of politely backing off, which is what makes it the right
// driver for noisy-neighbor experiments.
//
// Everything is seeded: per-tenant RNG streams are derived from the run
// seed and the tenant name, so adding a tenant never perturbs another
// tenant's schedule and the whole run replays bit-identically.
//
// The generator is test code: the package's tests are its only callers.
package mtraffic

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"streamlake/internal/sim"
	"streamlake/internal/streamsvc"
	"streamlake/internal/tenant"
)

// Lake is the slice of the lake the generator drives. Both
// *streamlake.Lake and *streamsvc.Service satisfy it.
type Lake interface {
	TenantProducer(id, ten string) *streamsvc.Producer
	Clock() *sim.Clock
}

// TenantSpec shapes one tenant's offered load.
type TenantSpec struct {
	// Name is the tenant identity sends are admitted under. It may name
	// a registered tenant (quotas apply) or be "" for the exempt system
	// identity (a pure background load).
	Name string
	// Producers is the virtual producer population keys are drawn from
	// (default 1000). Hot producers follow a Zipf curve over this range.
	Producers int
	// KeySkew is the Zipf exponent over the producer population
	// (default 0.99, the YCSB-style hot-key skew).
	KeySkew float64
	// ValueBytes sizes each record's value (default 1024).
	ValueBytes int
	// MeanGap is the mean inter-arrival gap between sends (default
	// 1ms ≈ 1000 msg/s offered).
	MeanGap time.Duration
	// DiurnalAmp in [0,1) modulates the arrival rate sinusoidally:
	// at the peak of the cycle gaps shrink by 1/(1+amp), at the trough
	// they stretch by 1/(1-amp). Zero disables the burst cycle.
	DiurnalAmp float64
}

func (s TenantSpec) withDefaults() TenantSpec {
	if s.Producers <= 0 {
		s.Producers = 1000
	}
	if s.KeySkew < 0 {
		s.KeySkew = 0
	} else if s.KeySkew == 0 {
		s.KeySkew = 0.99
	}
	if s.ValueBytes <= 0 {
		s.ValueBytes = 1024
	}
	if s.MeanGap <= 0 {
		s.MeanGap = time.Millisecond
	}
	if s.DiurnalAmp < 0 {
		s.DiurnalAmp = 0
	}
	if s.DiurnalAmp > 0.9 {
		s.DiurnalAmp = 0.9
	}
	return s
}

// Config is one generator run.
type Config struct {
	Topic string
	Seed  uint64
	// Events is the total number of sends across all tenants
	// (default 2000).
	Events int
	// DiurnalPeriod is the length of one burst cycle in virtual time
	// (default 1s — a compressed "day").
	DiurnalPeriod time.Duration
	Tenants       []TenantSpec
}

func (c Config) withDefaults() Config {
	if c.Events <= 0 {
		c.Events = 2000
	}
	if c.DiurnalPeriod <= 0 {
		c.DiurnalPeriod = time.Second
	}
	for i := range c.Tenants {
		c.Tenants[i] = c.Tenants[i].withDefaults()
	}
	return c
}

// TenantResult is one tenant's outcome classification and ack-latency
// quantiles over the run.
type TenantResult struct {
	Name      string
	Offered   int64 // sends attempted
	Acked     int64
	Throttled int64 // rejected by quota (ErrOverQuota)
	Shed      int64 // rejected by overload shedding (ErrShed)
	Failed    int64 // any other error
	Bytes     int64 // acked payload bytes
	P50       time.Duration
	P99       time.Duration
	Max       time.Duration
}

// Result is one run's outcome, tenants sorted by name.
type Result struct {
	Events  int
	Elapsed time.Duration // virtual time consumed by the arrival schedule
	Tenants []TenantResult
}

// Tenant returns the named tenant's result row.
func (r Result) Tenant(name string) (TenantResult, bool) {
	for _, t := range r.Tenants {
		if t.Name == name {
			return t, true
		}
	}
	return TenantResult{}, false
}

// flow is one tenant's live generator state.
type flow struct {
	spec TenantSpec
	rng  *sim.RNG
	zipf *sim.Zipf
	prod *streamsvc.Producer
	next time.Duration // absolute virtual arrival time of the pending send
	seq  int64

	offered, acked, throttled, shed, failed, bytes int64
	lat                                            []time.Duration
}

func nameSeed(seed uint64, name string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "mtraffic/%s", name)
	return seed ^ h.Sum64()
}

// gap draws the flow's next inter-arrival gap at virtual time now.
func (f *flow) gap(now, period time.Duration) time.Duration {
	// Exponential arrivals: -ln(1-u) * mean. u < 1 always, so the log
	// argument is never zero.
	u := f.rng.Float64()
	g := -math.Log(1-u) * float64(f.spec.MeanGap)
	if amp := f.spec.DiurnalAmp; amp > 0 {
		// Rate multiplier 1+amp*sin(2πt/T): gaps shrink at the peak of
		// the cycle and stretch at the trough.
		m := 1 + amp*math.Sin(2*math.Pi*float64(now)/float64(period))
		if m < 0.1 {
			m = 0.1
		}
		g /= m
	}
	if g < 1 {
		g = 1
	}
	return time.Duration(g)
}

// Run drives one open-loop schedule and returns the per-tenant outcome.
func Run(lake Lake, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Topic == "" {
		return Result{}, fmt.Errorf("mtraffic: Topic is required")
	}
	if len(cfg.Tenants) == 0 {
		return Result{}, fmt.Errorf("mtraffic: at least one TenantSpec is required")
	}
	clock := lake.Clock()
	start := clock.Now()

	// Sorted tenant order fixes the earliest-arrival tie-break and makes
	// per-tenant RNG derivation independent of spec order.
	flows := make([]*flow, len(cfg.Tenants))
	for i, spec := range cfg.Tenants {
		rng := sim.NewRNG(nameSeed(cfg.Seed, spec.Name))
		f := &flow{
			spec: spec,
			rng:  rng,
			zipf: sim.NewZipf(rng, spec.Producers, spec.KeySkew),
			prod: lake.TenantProducer("mt/"+spec.Name, spec.Name),
		}
		f.next = start + f.gap(0, cfg.DiurnalPeriod)
		flows[i] = f
	}
	sort.Slice(flows, func(i, j int) bool { return flows[i].spec.Name < flows[j].spec.Name })

	for ev := 0; ev < cfg.Events; ev++ {
		// Earliest pending arrival wins; strict < keeps the first (lowest
		// name) flow on ties, so the interleaving is deterministic.
		f := flows[0]
		for _, g := range flows[1:] {
			if g.next < f.next {
				f = g
			}
		}
		clock.Advance(f.next - clock.Now())
		f.send(cfg.Topic)
		f.next += f.gap(clock.Now()-start, cfg.DiurnalPeriod)
	}

	res := Result{Events: cfg.Events, Elapsed: clock.Now() - start}
	for _, f := range flows {
		res.Tenants = append(res.Tenants, f.result())
	}
	return res, nil
}

func (f *flow) send(topic string) {
	f.offered++
	f.seq++
	// The key identifies the virtual producer (Zipf-hot) plus a unique
	// sequence, so dedup never collapses distinct offered sends.
	key := fmt.Sprintf("%s/p%05d/k%08d", f.spec.Name, f.zipf.Next(), f.seq)
	val := make([]byte, f.spec.ValueBytes)
	for i := range val {
		val[i] = byte('a' + (int(f.seq)+i)%26)
	}
	_, cost, err := f.prod.Send(topic, []byte(key), val)
	switch {
	case err == nil:
		f.acked++
		f.bytes += int64(len(key) + len(val))
		f.lat = append(f.lat, cost)
	case errors.Is(err, tenant.ErrShed):
		f.shed++
	case errors.Is(err, tenant.ErrOverQuota):
		f.throttled++
	default:
		f.failed++
	}
}

func (f *flow) result() TenantResult {
	r := TenantResult{
		Name:      f.spec.Name,
		Offered:   f.offered,
		Acked:     f.acked,
		Throttled: f.throttled,
		Shed:      f.shed,
		Failed:    f.failed,
		Bytes:     f.bytes,
	}
	if len(f.lat) > 0 {
		s := append([]time.Duration(nil), f.lat...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		r.P50 = s[len(s)/2]
		r.P99 = s[len(s)*99/100]
		r.Max = s[len(s)-1]
	}
	return r
}
