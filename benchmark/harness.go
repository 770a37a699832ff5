package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"time"

	"streamlake"
)

// env is what one round of a workload runs under.
type env struct {
	seed uint64
	// div divides every per-round operation count (1, or 50 for -smoke).
	div int
	// k is -seconds over nominalSeconds. Workloads made of identical
	// rounds ignore it (the harness scales the round count); warehouse,
	// whose one round is the whole run, scales its query count by it.
	k float64
	// warm marks the discarded warm-up round; warehouse runs a short one.
	warm bool
	tr   *recorder // nil on untraced runs
	root int32     // span of the current round
}

// n scales a full-size operation count down for smoke runs.
func (e *env) n(full int) int {
	v := full / e.div
	if v < 1 {
		v = 1
	}
	return v
}

// workload is one named set of inputs and the calls made with them.
type workload interface {
	// setup builds every input from the seed, then opens a lake and
	// declares the topics and tables a round needs, once, to price it.
	setup(e *env) error
	// round opens a fresh lake, runs the fixed operation counts and
	// checks every output.
	round(e *env) *roundResult
}

// roundResult is what one round measured.
type roundResult struct {
	// wall holds this round's wall-clock and allocation metrics (the best
	// round's is reported).
	wall map[string]float64
	// exact holds virtual-time and count metrics (identical every round).
	exact map[string]float64
	// queries are wall times of single selective queries, in ms; pooled
	// over rounds for query_sel_wall_p50_ms / query_sel_wall_p90_ms.
	queries []float64
	// positional says the i-th query of every round is the same query on
	// the same state, and that queries differ from one another
	// (pipeline's DAU queries see a growing table). The p50 is then the
	// mean over positions of each position's median across rounds: a
	// pooled percentile would sit in a gap between positions.
	positional bool
	// virt sums the virtual time every timed call returned.
	virt time.Duration
	// ops are the primary operations of the timed phases (messages, or
	// queries on warehouse), the denominator of alloc_kb_per_op and
	// virt_us_per_op.
	ops       int
	attempted int
	fails     []string
	failed    int

	alloc, mallocs uint64        // heap allocation inside timed phases
	timed          time.Duration // wall time inside timed phases
	gcCPU, allCPU  float64       // CPU seconds inside timed phases

	lake   *streamlake.Lake // kept until live heap is read
	counts layerCounts      // the lake's own read-outs at round end
	work   work             // what the ladder replays
}

func newRound() *roundResult {
	return &roundResult{wall: map[string]float64{}, exact: map[string]float64{}}
}

// readCounts takes the lake's read-outs at round end, keeping what the
// harness has counted so far.
func (r *roundResult) readCounts(lake *streamlake.Lake) {
	h := r.counts
	r.counts = readCounts(lake)
	r.counts.rowsMatched, r.counts.queryFiles = h.rowsMatched, h.queryFiles
	r.counts.sliceReads, r.counts.sliceReadBytes = h.sliceReads, h.sliceReadBytes
}

func (r *roundResult) fail(format string, args ...any) {
	r.failed++
	if len(r.fails) < 8 {
		r.fails = append(r.fails, fmt.Sprintf(format, args...))
	}
}

// absorb moves a ledger's findings so far into the round.
func (r *roundResult) absorb(l *ledger) {
	r.failed += l.failed
	for _, f := range l.fails {
		if len(r.fails) < 8 {
			r.fails = append(r.fails, f)
		}
	}
	l.failed, l.fails = 0, nil
}

// phase runs fn as a timed phase: its wall time, heap allocation and GC
// CPU are charged to the round. It returns the wall time.
func (r *roundResult) phase(fn func()) time.Duration {
	var m0, m1 runtime.MemStats
	gc0, all0 := cpuSeconds()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	gc1, all1 := cpuSeconds()
	r.alloc += m1.TotalAlloc - m0.TotalAlloc
	r.mallocs += m1.Mallocs - m0.Mallocs
	r.gcCPU += gc1 - gc0
	r.allCPU += all1 - all0
	r.timed += d
	return d
}

// heapNow is the live heap after a forced collection.
func heapNow() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// runResult is one invocation's outcome.
type runResult struct {
	Workload  string
	Seed      uint64
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]float64
	fails     []string
	rounds    []*roundResult
}

// roundsFor is the number of measured rounds for a -seconds value.
func roundsFor(spec workloadSpec, seconds float64, smoke bool) int {
	if smoke {
		return 1
	}
	n := int(math.Round(float64(spec.Rounds) * seconds / nominalSeconds))
	if n < 1 {
		n = 1
	}
	return n
}

// timeSetup runs the workload's set-up reps times and returns the median
// wall time in seconds. The last repetition's inputs are kept.
func timeSetup(w workload, e *env, reps int) (float64, error) {
	var times []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(e); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

// runRounds runs one warm-up round (discarded) and n measured rounds,
// reading the live heap after each with the round's lake still held.
// keepLast leaves the last round its lake, for the ladder to read from.
func runRounds(w workload, e *env, n int, warmup, keepLast bool) []*roundResult {
	var out []*roundResult
	if warmup {
		e.warm = true
		w.round(e)
		e.warm = false
	}
	for i := 0; i < n; i++ {
		base := heapNow()
		if e.tr != nil {
			e.tr.round = int32(i)
			e.root = e.tr.begin("round", -1)
		}
		r := w.round(e)
		e.tr.end(e.root)
		live := heapNow()
		r.wall["live_heap_mb"] = (float64(live) - float64(base)) / (1 << 20)
		r.wall["round_wall_s"] = r.timed.Seconds()
		if r.ops > 0 {
			r.wall["alloc_kb_per_op"] = float64(r.alloc) / 1024 / float64(r.ops)
			r.exact["virt_us_per_op"] = float64(r.virt.Nanoseconds()) / 1e3 / float64(r.ops)
		}
		if !keepLast || i < n-1 {
			r.lake = nil
		}
		out = append(out, r)
	}
	return out
}

// endToEndRun is an untraced run: set-up, rounds, aggregation, and the
// determinism gate over the exact metrics.
func endToEndRun(spec workloadSpec, seed uint64, seconds float64, smoke bool) (*runResult, error) {
	w := newWorkload(spec.Name)
	e := &env{seed: seed, div: 1, k: seconds / nominalSeconds}
	if smoke {
		e.div = 50
	}
	reps := spec.SetupReps
	if smoke {
		reps = 1 // a smoke run checks outputs, it does not time anything
	}
	setupS, err := timeSetup(w, e, reps)
	if err != nil {
		return nil, err
	}
	rounds := runRounds(w, e, roundsFor(spec, seconds, smoke), !smoke, false)
	res := aggregate(spec, seed, rounds)
	res.Metrics["setup_s"] = setupS
	return res, nil
}

// aggregate turns rounds into one value per end-to-end metric the
// workload reports: for exact numbers the first round's value, after
// checking that every other round agrees bit for bit; for the others the
// best round's. Every round does the same work on the same inputs, so
// what differs between rounds is what got in the way, and on a shared
// host that only ever slows a round down: while the host was busy, ten
// runs' median rounds spread 22 % (interquartile range over median) and
// their best rounds 10 %, and the best rounds sat within 5 % of what a
// quiet host gives.
func aggregate(spec workloadSpec, seed uint64, rounds []*roundResult) *runResult {
	res := &runResult{Workload: spec.Name, Seed: seed, Metrics: map[string]float64{}, rounds: rounds}
	var queries []float64
	for i, r := range rounds {
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, f := range r.fails {
			res.fails = append(res.fails, fmt.Sprintf("round %d: %s", i, f))
		}
		queries = append(queries, r.queries...)
	}
	first := rounds[0]
	for _, m := range reported(spec.Name) {
		if m.Name == "setup_s" || strings.HasPrefix(m.Name, "query_sel_wall_") {
			continue
		}
		if m.Exact {
			v := first.exact[m.Name]
			for i, r := range rounds[1:] {
				if r.exact[m.Name] != v {
					res.Failed++
					res.fails = append(res.fails, fmt.Sprintf("determinism: %s is %v in round 0 and %v in round %d", m.Name, v, r.exact[m.Name], i+1))
				}
			}
			res.Metrics[m.Name] = v
			continue
		}
		var vals []float64
		for _, r := range rounds {
			if v, ok := r.wall[m.Name]; ok {
				vals = append(vals, v)
			}
		}
		if len(vals) > 0 && m.Better == "higher" {
			res.Metrics[m.Name] = slices.Max(vals)
		} else if len(vals) > 0 {
			res.Metrics[m.Name] = slices.Min(vals)
		}
	}
	if first.positional {
		var medians []float64
		for pos := range first.queries {
			var at []float64
			for _, r := range rounds {
				if pos < len(r.queries) {
					at = append(at, r.queries[pos])
				}
			}
			medians = append(medians, median(at))
		}
		if len(medians) > 0 {
			res.Metrics["query_sel_wall_p50_ms"] = sumOf(medians) / float64(len(medians))
		}
	} else if len(queries) > 0 {
		s := sorted(queries)
		res.Metrics["query_sel_wall_p50_ms"] = s[quantileIdx(len(s), 0.5)]
		res.Metrics["query_sel_wall_p90_ms"] = s[tailIdx(len(s))]
	}
	res.Correct = res.Failed == 0
	return res
}
