package main

import (
	"fmt"
	"os"
	"path/filepath"
)

// tracedRun produces the per-layer metrics. The run is split in two
// halves of the same rounds: first untraced, then with a span around
// every call the workload makes into the lake; their ratio is the
// tracing overhead. The last traced round's counters and lake then feed
// the ladder's lower rungs. With out set, spans and a CPU profile of the
// traced half are written there, and the profile's per-package share is
// printed beside the ladder's.
func tracedRun(spec workloadSpec, seed uint64, seconds float64, smoke bool, out string) (*runResult, error) {
	w := newWorkload(spec.Name)
	e := &env{seed: seed, div: 1, k: seconds / nominalSeconds / 2}
	if smoke {
		e.div = 50
	}
	if err := w.setup(e); err != nil {
		return nil, err
	}
	n := roundsFor(spec, seconds/2, smoke)
	plain := runRounds(w, e, n, !smoke, false)

	e.tr = newRecorder()
	var prof *cpuProfile
	if out != "" {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return nil, err
		}
		var err error
		if prof, err = startCPUProfile(filepath.Join(out, spec.Name+".cpu.pprof")); err != nil {
			return nil, err
		}
	}
	traced := runRounds(w, e, n, false, true)
	if prof != nil {
		if err := prof.stop(); err != nil {
			return nil, err
		}
	}

	// Correctness and determinism are judged over both halves.
	res := aggregate(spec, seed, append(append([]*roundResult(nil), plain...), traced...))
	last := traced[len(traced)-1]
	if len(last.work.scans) == 0 || last.work.converts > 0 {
		last.lake = nil // only tableStates, without conversions, needs the loaded lake
	}
	counts := last.counts.metrics()
	c := &climber{ladder: &ladder{tr: e.tr}, w: last.work, m: counts, live: last.lake}
	if smoke {
		c.climb(1)
	} else {
		c.climb(ladderPasses)
	}
	self, omitted := c.selfMS()
	for _, msg := range c.errs {
		res.Failed++
		res.fails = append(res.fails, "ladder: "+msg)
	}
	res.Correct = res.Failed == 0

	// The named end-to-end metrics come from the untraced half alone.
	metrics := aggregate(spec, seed, plain).Metrics
	for _, m := range layerMetrics() {
		metrics[m.Name] = counts[m.Name]
	}
	for layer, v := range self {
		metrics[layer+".self_ms"] = v
	}
	metrics["trace.paths_omitted"] = float64(omitted)
	metrics["lakehouse.plan_self_ms"] = ms(c.t[splitPath]["plan"])
	metrics["lakehouse.scan_self_ms"] = ms(max(0, c.t[splitPath]["scan"]-c.t["query"]["tableobj"]))
	for metric, names := range map[string][]string{
		"streamsvc.send_wall_p99_us": {spanSend, "streamsvc/produce"},
		"streamsvc.poll_wall_p99_us": {spanPoll, "streamsvc/consume"},
	} {
		for _, name := range names {
			if d := e.tr.durations(name); len(d) > 0 {
				s := sorted(d)
				metrics[metric] = s[quantileIdx(len(s), 0.99)]
			}
		}
	}
	var gc, all, allocs, plainTimed, tracedTimed []float64
	for i := range plain {
		gc = append(gc, plain[i].gcCPU)
		all = append(all, plain[i].allCPU)
		allocs = append(allocs, ratio(float64(plain[i].mallocs), float64(plain[i].ops)))
		plainTimed = append(plainTimed, plain[i].timed.Seconds())
		tracedTimed = append(tracedTimed, traced[i].timed.Seconds())
	}
	metrics["runtime.gc_cpu_share"] = ratio(sumOf(gc), sumOf(all))
	metrics["runtime.allocs_per_op"] = median(allocs)
	metrics["trace.overhead_ratio"] = ratio(median(tracedTimed), median(plainTimed))
	res.Metrics = metrics

	fmt.Printf("ladder %s (per round, ms)\n%s", spec.Name, c.table())
	for _, note := range c.notes {
		fmt.Fprintln(os.Stderr, "WARN", spec.Name+":", note)
	}
	if out != "" {
		if err := e.tr.writeJSONL(filepath.Join(out, spansFile), spec.Name); err != nil {
			return nil, err
		}
		prof.report(spec.Name, self)
	}
	return res, nil
}
