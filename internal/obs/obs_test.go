package obs

import (
	"strings"
	"sync"
	"testing"
	"time"

	"streamlake/internal/sim"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatalf("nil counter value = %d", c.Value())
	}
	g := r.Gauge("x")
	g.Set(3)
	if g.Value() != 0 {
		t.Fatalf("nil gauge value = %v", g.Value())
	}
	h := r.Histogram("x_seconds")
	h.Observe(time.Millisecond)
	if h.Count() != 0 {
		t.Fatalf("nil histogram recorded samples")
	}
	r.GaugeFunc("f", func() float64 { return 1 })
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil || b.Len() != 0 {
		t.Fatalf("nil registry rendered %q, err %v", b.String(), err)
	}
}

func TestCountersGaugesHistograms(t *testing.T) {
	r := NewRegistry(sim.NewClock())
	r.Counter("ops_total").Add(3)
	r.Counter("ops_total").Inc() // same instrument by name
	if got := r.Counter("ops_total").Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	r.Gauge("depth").Set(2.5)
	if got := r.Gauge("depth").Value(); got != 2.5 {
		t.Fatalf("gauge = %v", got)
	}
	r.GaugeFunc("util", func() float64 { return 0.75 })
	h := r.Histogram("lat_seconds")
	h.Observe(10 * time.Microsecond)
	h.Observe(10 * time.Microsecond)
	h.Observe(5 * time.Millisecond)
	if h.Count() != 3 {
		t.Fatalf("hist count = %d", h.Count())
	}
	snap := r.Snapshot()
	if snap.Counters["ops_total"] != 4 || snap.Gauges["depth"] != 2.5 || snap.Gauges["util"] != 0.75 {
		t.Fatalf("snapshot mismatch: %+v", snap)
	}
	hs := snap.Histograms["lat_seconds"]
	if hs.Count != 3 || hs.Sum != 5*time.Millisecond+20*time.Microsecond {
		t.Fatalf("hist snapshot: %+v", hs)
	}
	if q := hs.Quantile(0.5); q < 10*time.Microsecond || q > 20*time.Microsecond {
		t.Fatalf("p50 = %v", q)
	}
	if q := hs.Quantile(1.0); q < 5*time.Millisecond {
		t.Fatalf("p100 = %v", q)
	}
	// 5,000 seeded samples: the count is the number observed, and the
	// quantiles rise with q.
	seeded := r.Histogram("seeded_seconds")
	rng := sim.NewRNG(7)
	for i := 0; i < 5000; i++ {
		seeded.Observe(time.Duration(rng.Intn(1_000_000)) * time.Nanosecond)
	}
	ss := r.Snapshot().Histograms["seeded_seconds"]
	if seeded.Count() != 5000 || ss.Count != 5000 {
		t.Fatalf("seeded count = %d, snapshot %d, want 5000", seeded.Count(), ss.Count)
	}
	last := time.Duration(0)
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		v := ss.Quantile(q)
		if v < last {
			t.Fatalf("quantiles not monotone: q=%v -> %v < %v", q, v, last)
		}
		last = v
	}
}

// TestCounterFunc: a callback counter is read when the registry is, is
// carried with the counters and rendered as one, and a name keeps the
// kind it was first registered with — either order panics.
func TestCounterFunc(t *testing.T) {
	r := NewRegistry(sim.NewClock())
	var n int64
	r.CounterFunc(`sends_total{path="rdma"}`, func() int64 { return n })
	n = 7
	if got := r.Snapshot().Counters[`sends_total{path="rdma"}`]; got != 7 {
		t.Fatalf("snapshot read %d, want 7", got)
	}
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if want := "# TYPE sends_total counter\nsends_total{path=\"rdma\"} 7\n"; b.String() != want {
		t.Fatalf("rendered %q, want %q", b.String(), want)
	}
	r.Counter("ops_total")
	for name, register := range map[string]func(){
		"Counter over CounterFunc": func() { r.Counter(`sends_total{path="rdma"}`) },
		"CounterFunc over Counter": func() { r.CounterFunc("ops_total", func() int64 { return 0 }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			register()
		}()
	}
}

func TestWritePromFormat(t *testing.T) {
	r := NewRegistry(sim.NewClock())
	r.Counter(`bus_bytes_total{path="rdma"}`).Add(100)
	r.Counter(`bus_bytes_total{path="tcp"}`).Add(50)
	r.Gauge("pool_util").Set(0.5)
	r.Histogram("append_seconds").Observe(2 * time.Microsecond)
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE bus_bytes_total counter\n",
		"bus_bytes_total{path=\"rdma\"} 100\n",
		"bus_bytes_total{path=\"tcp\"} 50\n",
		"# TYPE pool_util gauge\n",
		"pool_util 0.5\n",
		"# TYPE append_seconds histogram\n",
		`append_seconds_bucket{le="+Inf"} 1` + "\n",
		"append_seconds_sum 2e-06\n",
		"append_seconds_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// Families are sorted and the TYPE line precedes its series.
	if strings.Index(out, "# TYPE append_seconds") > strings.Index(out, "# TYPE bus_bytes_total") {
		t.Fatalf("families not sorted:\n%s", out)
	}
}

func TestWritePromDeterministic(t *testing.T) {
	build := func() string {
		r := NewRegistry(sim.NewClock())
		// Insertion order varies; rendering must not.
		names := []string{"z_total", "a_total", `m_total{k="2"}`, `m_total{k="1"}`}
		var wg sync.WaitGroup
		for _, n := range names {
			wg.Add(1)
			go func(n string) {
				defer wg.Done()
				r.Counter(n).Add(int64(len(n)))
			}(n)
		}
		wg.Wait()
		r.Histogram("h_seconds").Observe(3 * time.Microsecond)
		var b strings.Builder
		r.WriteProm(&b)
		return b.String()
	}
	if a, b := build(), build(); a != b {
		t.Fatalf("renders differ:\n%s\n---\n%s", a, b)
	}
}

func TestSpanTreeAndCursor(t *testing.T) {
	clock := sim.NewClock()
	clock.Advance(time.Second)
	tr := NewTracer(clock)
	root := tr.Start("gateway.produce")
	if root.ID != 1 || root.Start != time.Second {
		t.Fatalf("root: %+v", root)
	}
	a := root.Child("bus.send")
	a.End(3 * time.Microsecond)
	root.Advance(3 * time.Microsecond)
	b := root.Child("plog.append")
	b.SetAttr("log", "1")
	// Parallel fan-out to two disks: both children share b's cursor.
	d1 := b.Child("pool.write")
	d1.End(50 * time.Microsecond)
	d2 := b.Child("pool.write")
	d2.End(80 * time.Microsecond)
	b.Advance(80 * time.Microsecond) // max of the parallel section
	b.End(80 * time.Microsecond)
	root.Advance(80 * time.Microsecond)
	root.End(83 * time.Microsecond)

	if b.Off != 3*time.Microsecond {
		t.Fatalf("plog span offset = %v", b.Off)
	}
	if d1.Off != 0 || d2.Off != 0 {
		t.Fatalf("parallel children offsets: %v %v", d1.Off, d2.Off)
	}
	tree := root.Tree()
	for _, want := range []string{"gateway.produce", "bus.send", "plog.append", "pool.write", "{log=1}"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("tree missing %q:\n%s", want, tree)
		}
	}
	j := root.JSON()
	if len(j.Children) != 2 || j.Children[1].Attrs["log"] != "1" {
		t.Fatalf("json: %+v", j)
	}
	if tr.Get(1) != root || tr.Last() != root {
		t.Fatal("tracer lookup failed")
	}
}

func TestTracerEvictsOldTraces(t *testing.T) {
	tr := NewTracer(sim.NewClock())
	for i := 0; i < maxTraces+10; i++ {
		tr.Start("s")
	}
	if tr.Get(1) != nil {
		t.Fatal("oldest trace not evicted")
	}
	if tr.Get(int64(maxTraces+10)) == nil {
		t.Fatal("newest trace missing")
	}
	if tr.Last().ID != int64(maxTraces+10) {
		t.Fatalf("last = %d", tr.Last().ID)
	}
}

func TestNilSpanIsNoOp(t *testing.T) {
	var s *Span
	c := s.Child("x")
	if c != nil {
		t.Fatal("nil span produced a child")
	}
	c.End(time.Second)
	c.SetAttr("k", "v")
	c.Advance(time.Second)
	if got := c.Tree(); got != "" {
		t.Fatalf("nil tree = %q", got)
	}
	var tr *Tracer
	if sp := tr.Start("x"); sp != nil {
		t.Fatal("nil tracer produced a span")
	}
	if tr.Get(1) != nil || tr.Last() != nil {
		t.Fatal("nil tracer lookup non-nil")
	}
}

func TestConcurrentInstrumentUse(t *testing.T) {
	r := NewRegistry(sim.NewClock())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c_total").Inc()
				r.Histogram("h_seconds").Observe(time.Microsecond)
				r.Gauge("g").Set(float64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c_total").Value(); got != 8000 {
		t.Fatalf("counter = %d", got)
	}
	if got := r.Histogram("h_seconds").Count(); got != 8000 {
		t.Fatalf("hist = %d", got)
	}
}
