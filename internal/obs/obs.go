// Package obs is StreamLake's observability subsystem: a stdlib-only
// metrics registry (counters, gauges, virtual-time histograms) plus
// span-based tracing (trace.go). It exists because LakeBrain (Section
// VI) is explicitly driven by storage-side telemetry — I/O statistics,
// access heat, compaction cost — and because the evaluation needs a
// uniform way to observe every layer of the stack.
//
// Two properties shape the design:
//
//   - Deterministic: latencies are measured against the simulation's
//     virtual clock, never wall time, so two runs of the same seeded
//     workload produce byte-identical /metrics output. Rendering sorts
//     every family and series.
//
//   - Cheap when unused: a nil *Registry hands out nil instruments, and
//     every instrument method is a nil-receiver no-op, so a disabled
//     stack pays one pointer test per event. Enabled instruments are a
//     single atomic add on the hot path; instrument lookup is meant to
//     happen once at wiring time, not per operation.
//
// Metric names follow the Prometheus exposition conventions and may
// embed a fixed label set directly in the name, e.g.
// `bus_bytes_total{path="rdma"}`; the renderer splits the family name
// from the labels so histogram series compose with a `le` label.
package obs

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"streamlake/internal/sim"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (zero for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the gauge value. No-op on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value (zero for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// HistBuckets is the fixed bucket count: log-scaled, 4 buckets per
// doubling anchored at 1µs, covering 1µs .. ~4300s of virtual time.
const HistBuckets = 128

// Histogram collects virtual-time latency samples in fixed log-scale
// buckets. All operations are lock-free atomics: an Observe is two, and
// the sample count is the sum of the buckets, so they always agree.
type Histogram struct {
	buckets [HistBuckets]atomic.Int64
	sum     atomic.Int64 // nanoseconds
}

// histLower[i] is the smallest duration, in nanoseconds, that lands in
// bucket i: 2^(i/4) µs, rounded up to a whole nanosecond.
var histLower = func() (lo [HistBuckets]int64) {
	for i := range lo {
		lo[i] = int64(math.Ceil(math.Exp2(float64(i)/4) * float64(time.Microsecond)))
	}
	return lo
}()

// histIndex returns d's bucket, floor(4·log2(d/1µs)) clamped to the bucket
// range, in integers: the octave is the bit length of the whole
// microseconds, the quarter within it three compares against histLower.
func histIndex(d time.Duration) int {
	if d < time.Microsecond {
		return 0
	}
	i := 4 * (bits.Len64(uint64(d/time.Microsecond)) - 1)
	if i >= HistBuckets {
		return HistBuckets - 1
	}
	for q := 0; q < 3 && int64(d) >= histLower[i+1]; q++ {
		i++
	}
	return i
}

// histUpper returns bucket i's upper bound.
func histUpper(i int) time.Duration {
	us := math.Pow(2, float64(i+1)/4)
	return time.Duration(us * float64(time.Microsecond))
}

// Observe records one latency sample. No-op on a nil histogram.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.buckets[histIndex(d)].Add(1)
	h.sum.Add(int64(d))
}

// Count returns the number of samples (zero for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.snapshot().Count
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   int64
	Sum     time.Duration
	Buckets [HistBuckets]int64
}

// Observe records one sample into the copy. It is not atomic: an owner
// that already holds a lock where it samples (the bus) keeps its own
// histogram this way and publishes it with HistogramFunc.
func (s *HistogramSnapshot) Observe(d time.Duration) {
	s.Buckets[histIndex(d)]++
	s.Count++
	s.Sum += d
}

// Add merges o into s.
func (s *HistogramSnapshot) Add(o HistogramSnapshot) {
	for i, n := range o.Buckets {
		s.Buckets[i] += n
	}
	s.Count += o.Count
	s.Sum += o.Sum
}

// Quantile returns the approximate q-quantile (bucket upper bound).
func (s *HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i < HistBuckets; i++ {
		seen += s.Buckets[i]
		if seen >= rank {
			return histUpper(i)
		}
	}
	return histUpper(HistBuckets - 1)
}

// snapshot copies the histogram. Buckets are read individually; a
// snapshot concurrent with observes is each-counter-consistent, which
// is the usual histogram contract.
func (h *Histogram) snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Sum = time.Duration(h.sum.Load())
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	return s
}

// Registry owns named instruments. The zero of *Registry (nil) is a
// valid disabled registry: every lookup returns a nil instrument.
type Registry struct {
	clock *sim.Clock

	mu         sync.RWMutex
	counters   map[string]*Counter
	counterFns map[string]func() int64
	gauges     map[string]*Gauge
	gaugeFns   map[string]func() float64
	hists      map[string]*Histogram
	histFns    map[string]func() HistogramSnapshot
}

// NewRegistry builds a registry measuring time against clock.
func NewRegistry(clock *sim.Clock) *Registry {
	return &Registry{
		clock:      clock,
		counters:   make(map[string]*Counter),
		counterFns: make(map[string]func() int64),
		gauges:     make(map[string]*Gauge),
		gaugeFns:   make(map[string]func() float64),
		hists:      make(map[string]*Histogram),
		histFns:    make(map[string]func() HistogramSnapshot),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter. It panics when name is a
// CounterFunc: one name has one kind.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counterFns[name] != nil {
		panic("obs: " + name + " is a CounterFunc, not a Counter")
	}
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil
// registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// CounterFunc registers a callback counter, evaluated at snapshot time
// and carried in Snapshot().Counters: how a layer publishes the tally
// its Stats already keep. fn must never decrease. The last registration
// for a name wins; a Counter's name panics. No-op on a nil registry.
func (r *Registry) CounterFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters[name] != nil {
		panic("obs: " + name + " is a Counter, not a CounterFunc")
	}
	r.counterFns[name] = fn
}

// GaugeFunc registers a callback gauge: fn is evaluated at snapshot and
// render time. The last registration for a name wins. No-op on a nil
// registry.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gaugeFns[name] = fn
	r.mu.Unlock()
}

// Histogram returns the named virtual-time histogram, creating it on
// first use. A nil registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// HistogramFunc registers a callback histogram, evaluated at snapshot
// time and carried in Snapshot().Histograms: how a layer publishes the
// samples its Stats already keep. The last registration for a name
// wins. No-op on a nil registry.
func (r *Registry) HistogramFunc(name string, fn func() HistogramSnapshot) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.histFns[name] = fn
	r.mu.Unlock()
}

// Snapshot is a point-in-time copy of every instrument — the telemetry
// feed LakeBrain policies consume.
type Snapshot struct {
	At         time.Duration                // virtual time of the snapshot
	Counters   map[string]int64             // includes evaluated CounterFuncs
	Gauges     map[string]float64           // includes evaluated GaugeFuncs
	Histograms map[string]HistogramSnapshot // includes evaluated HistogramFuncs
}

// Snapshot copies the registry. A nil registry snapshots empty.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	s.At = r.clock.Now()
	r.mu.RLock()
	counters, counterFns := maps.Clone(r.counters), maps.Clone(r.counterFns)
	gauges, fns, hists := maps.Clone(r.gauges), maps.Clone(r.gaugeFns), maps.Clone(r.hists)
	histFns := maps.Clone(r.histFns)
	r.mu.RUnlock()
	// Instruments are read outside the registry lock: the callbacks call
	// back into subsystem Stats() methods that take their own locks.
	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, fn := range counterFns {
		s.Counters[k] = fn()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	for k, fn := range fns {
		s.Gauges[k] = fn()
	}
	for k, v := range hists {
		s.Histograms[k] = v.snapshot()
	}
	for k, fn := range histFns {
		s.Histograms[k] = fn()
	}
	return s
}

// splitName separates a metric name into its family and embedded label
// set: `bus_bytes_total{path="rdma"}` -> ("bus_bytes_total",
// `path="rdma"`).
func splitName(name string) (family, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

func seriesName(family, labels, extra string) string {
	switch {
	case labels == "" && extra == "":
		return family
	case labels == "":
		return family + "{" + extra + "}"
	case extra == "":
		return family + "{" + labels + "}"
	default:
		return family + "{" + labels + "," + extra + "}"
	}
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteProm renders the registry in the Prometheus text exposition
// format. Output is deterministic: families and series are sorted, and
// all values derive from virtual time and seeded workloads. A nil
// registry renders nothing.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	snap := r.Snapshot()
	type series struct {
		name string // full series name with labels
		kind string // counter | gauge | histogram
	}
	families := map[string][]series{}
	order := []string{}
	add := func(name, kind string) {
		fam, _ := splitName(name)
		if _, ok := families[fam]; !ok {
			order = append(order, fam)
		}
		families[fam] = append(families[fam], series{name: name, kind: kind})
	}
	for name := range snap.Counters {
		add(name, "counter")
	}
	for name := range snap.Gauges {
		add(name, "gauge")
	}
	for name := range snap.Histograms {
		add(name, "histogram")
	}
	sort.Strings(order)
	var b bytes.Buffer
	for _, fam := range order {
		ss := families[fam]
		sort.Slice(ss, func(i, j int) bool { return ss[i].name < ss[j].name })
		fmt.Fprintf(&b, "# TYPE %s %s\n", fam, ss[0].kind)
		for _, s := range ss {
			_, labels := splitName(s.name)
			switch s.kind {
			case "counter":
				fmt.Fprintf(&b, "%s %d\n", s.name, snap.Counters[s.name])
			case "gauge":
				fmt.Fprintf(&b, "%s %s\n", s.name, formatFloat(snap.Gauges[s.name]))
			case "histogram":
				h := snap.Histograms[s.name]
				var cum int64
				for i := 0; i < HistBuckets; i++ {
					if h.Buckets[i] == 0 {
						continue // only occupied buckets are rendered
					}
					cum += h.Buckets[i]
					le := formatFloat(histUpper(i).Seconds())
					fmt.Fprintf(&b, "%s %d\n", seriesName(fam+"_bucket", labels, `le="`+le+`"`), cum)
				}
				fmt.Fprintf(&b, "%s %d\n", seriesName(fam+"_bucket", labels, `le="+Inf"`), h.Count)
				fmt.Fprintf(&b, "%s %s\n", seriesName(fam+"_sum", labels, ""), formatFloat(h.Sum.Seconds()))
				fmt.Fprintf(&b, "%s %d\n", seriesName(fam+"_count", labels, ""), h.Count)
			}
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}
