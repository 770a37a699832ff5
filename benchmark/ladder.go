package main

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"

	"streamlake"
	"streamlake/internal/lakehouse"
)

// The layer ladder. End-to-end numbers come from untraced runs; a traced
// run answers where the time goes without touching the program. On every
// path the top rung is the workload itself, with a span around each call
// into the path's public entry point. Every rung below opens a lake the
// way the workload does, reaches one layer through the lake's accessors
// and replays, with one span per call, the work the rung above hands that
// layer in a round: the same messages, rows and queries where the layer
// sees them, and the call counts and payload sizes of the round's own
// read-outs where it sees only bytes. A layer's self time on a path is
// its rung's time minus its child rungs' time.

// paths name the call chains; children[path][layer] are the layers a
// layer calls into on that path. A layer that a workload does not use
// has no rung, and simply drops out.
var paths = []string{"produce", "consume", "load", "query", "convert"}

var children = map[string]map[string][]string{
	"produce": {
		"gateway":   {"streamsvc"},
		"streamsvc": {"tenant", "bus", "cluster", "streamobj"},
		"streamobj": {"shard"},
		"shard":     {"plog"},
		"plog":      {"pool", "ec"},
	},
	"consume": {
		"gateway":   {"streamsvc"},
		"streamsvc": {"streamobj"},
		"streamobj": {"shard"},
		"shard":     {"plog"},
		"plog":      {"pool"},
	},
	"load": {
		"lakehouse": {"tableobj"},
		"tableobj":  {"colfile", "plog"},
		"plog":      {"pool", "ec"},
	},
	"query": {
		"gateway":   {"query"},
		"query":     {"lakehouse"},
		"lakehouse": {"tableobj", "colfile"},
		"tableobj":  {"plog"},
		"plog":      {"pool", "cache"},
	},
	"convert": {
		"convert":   {"rowcodec", "streamobj", "tableobj"},
		"streamobj": {"shard"},
		"shard":     {"plog"},
		"plog":      {"pool"},
		"tableobj":  {"colfile"},
	},
}

// scanCall is one query as the lakehouse layer sees it.
type scanCall struct {
	sql      string
	filters  []lakehouse.RangeFilter
	group    string
	sum      string
	pushdown bool // AggregatePushdown; otherwise PlanScan + Scan
}

// work describes one round to the rungs: how the workload opens its
// lake, and the calls it made.
type work struct {
	cfg     streamlake.Config
	topic   streamlake.TopicConfig // Name is empty when the workload has no topic
	pool    []message
	sends   int
	polls   int
	tenants []string
	nodes   int

	table    string // table the queries and inserts go to
	meta     streamlake.TableMeta
	inserts  [][][]streamlake.Row // per Insert batch, per partition
	scans    []scanCall
	converts int // RunConversion calls
}

// rungTimes are rung times per path and layer, for one round.
type rungTimes map[string]map[string]time.Duration

// ladder collects rung times.
type ladder struct {
	tr    *recorder
	t     rungTimes
	notes []string
}

// ladderPasses is how often the ladder is climbed; a rung's time is the
// fastest of the passes. A smoke run, which checks the ladder and times
// nothing, climbs once.
const ladderPasses = 3

// splitPath is not a call chain: it holds the plan and scan halves of
// the lakehouse query rung, measured like every rung, for
// lakehouse.plan_self_ms and lakehouse.scan_self_ms.
const splitPath = "lakehouse-split"

// climbed runs every rung, top to bottom, passes times over, and keeps
// per path and layer the fastest pass. Top rungs are the fastest of the
// traced rounds (fromSpans), so every rung is the same kind of estimate:
// what the calls cost when nothing gets in their way. A median does not
// do for replays. The rungs that move the round's payload bytes hold
// hundreds of megabytes by the time they end, and whichever of them comes
// first after another has let go of as much takes half as long again in
// one pass out of four (the runtime is still handing the freed memory
// back to the system underneath it); the first replay also takes the page
// faults for memory the process has not touched before, which a round
// after its warm-up does not pay. The passes are whole climbs, not a rung
// three times in a row, so that a slow second of the host falls on one
// pass of a few rungs and not on every pass of one.
func (l *ladder) climbed(rungs []func(), passes int) {
	var took []rungTimes
	for i := 0; i < passes; i++ {
		l.t = rungTimes{}
		for _, rung := range rungs {
			// The collection frees the previous rung's lake, so that a rung
			// runs in memory the rounds have already touched.
			runtime.GC()
			rung()
		}
		took = append(took, l.t)
	}
	l.t = rungTimes{}
	for p, layersOf := range took[0] {
		for layer := range layersOf {
			fastest := took[0][p][layer]
			for _, t := range took[1:] {
				fastest = min(fastest, t[p][layer])
			}
			l.add(p, layer, fastest)
		}
	}
}

func (l *ladder) add(path, layer string, d time.Duration) {
	if l.t[path] == nil {
		l.t[path] = map[string]time.Duration{}
	}
	l.t[path][layer] += d
}

// rung replays calls of one layer's entry point: fn(i) is timed as a span
// for i in [0, replay), and the summed time, scaled up to total calls
// when only a sample is replayed, is the layer's time on the path.
// Sampling is for layers whose calls all cost alike; pass replay == total
// where a call's cost depends on the calls before it.
func (l *ladder) rung(path, layer string, total, replay int, fn func(i int)) {
	l.rungPrep(path, layer, total, replay, nil, fn)
}

// rungPrep is rung with an untimed step ahead of each call, for what the
// workload also does between its calls and not inside them.
func (l *ladder) rungPrep(path, layer string, total, replay int, prep, fn func(i int)) {
	if total <= 0 {
		return
	}
	if replay > total || replay <= 0 {
		replay = total
	}
	name := layer + "/" + path
	root := l.tr.begin("rung:"+name, -1)
	var sum int64
	for i := 0; i < replay; i++ {
		if prep != nil {
			prep(i)
		}
		id := l.tr.begin(name, root)
		fn(i)
		l.tr.end(id)
		sum += l.tr.spans[id].End - l.tr.spans[id].Start
	}
	l.tr.end(root)
	l.add(path, layer, time.Duration(float64(sum)*float64(total)/float64(replay)))
}

// fromSpans takes a top rung's time from the traced rounds' own spans:
// what the spans called name add up to in the round where that is least.
func (l *ladder) fromSpans(path, layer, name string) {
	if sums := l.tr.perRound(name); sums != nil {
		l.add(path, layer, time.Duration(slices.Min(sums)))
	}
}

// kids is the time of the rungs a layer calls into on a path.
func (l *ladder) kids(path, layer string) time.Duration {
	var d time.Duration
	for _, c := range children[path][layer] {
		d += l.t[path][c]
	}
	return d
}

// selfMS resolves every path into self times, summed per layer, and
// counts the paths it had to leave out. A layer's self time is its rung
// minus its child rungs, so a path's self times add up to its top rung
// by construction, unless a child rung, measured alone, took longer than
// its parent: a self time cannot be negative, it is held at zero, and the
// path's sum then exceeds the top rung by the excess. A path whose sum is
// off by more than a tenth does not say where the time goes: its self
// times are left out of the layers' totals and the path is reported.
func (l *ladder) selfMS() (self map[string]float64, omitted int) {
	self = map[string]float64{}
	for _, p := range paths {
		var sum, top time.Duration
		isChild := map[string]bool{}
		for layer := range l.t[p] {
			for _, c := range children[p][layer] {
				if _, ok := l.t[p][c]; ok {
					isChild[c] = true
				}
			}
			sum += max(0, l.t[p][layer]-l.kids(p, layer))
		}
		for layer, d := range l.t[p] {
			if !isChild[layer] {
				top += d
			}
		}
		if top > 0 && (float64(sum) > 1.1*float64(top) || float64(sum) < 0.9*float64(top)) {
			omitted++
			l.notes = append(l.notes, fmt.Sprintf("path %s left out: self times sum to %.1f ms, top rung is %.1f ms", p, ms(sum), ms(top)))
			continue
		}
		for layer, d := range l.t[p] {
			self[layer] += ms(max(0, d-l.kids(p, layer)))
		}
	}
	return self, omitted
}

// table renders the ladder for people: per path, each layer's rung time
// and self time, top rung first.
func (l *ladder) table() string {
	out := ""
	for _, p := range paths {
		if len(l.t[p]) == 0 {
			continue
		}
		layersOf := make([]string, 0, len(l.t[p]))
		for layer := range l.t[p] {
			layersOf = append(layersOf, layer)
		}
		sort.Slice(layersOf, func(i, j int) bool { return l.t[p][layersOf[i]] > l.t[p][layersOf[j]] })
		out += fmt.Sprintf("  path %s\n", p)
		for _, layer := range layersOf {
			// Not held at zero here, so a child rung that outran its
			// parent shows.
			out += fmt.Sprintf("    %-10s rung %10.2f ms   self %10.2f ms\n", layer, ms(l.t[p][layer]), ms(l.t[p][layer]-l.kids(p, layer)))
		}
	}
	return out
}
