package main

import "slices"

// The benchmark's contract, in one place: workloads, end-to-end metrics
// with their bounds, and per-layer metrics. BENCHMARK.json at the
// repository root is this file rendered as JSON; smoke_test.go fails if
// the two drift apart.

// nominalSeconds is the measured length the round counts below are
// calibrated for (BENCHMARK.json's run_seconds). Another -seconds value
// scales the number of rounds, never the operations in a round.
const nominalSeconds = 15

type workloadSpec struct {
	Name string
	Why  string
	// Rounds is the number of measured rounds at nominalSeconds; one
	// extra warm-up round runs first and is discarded.
	Rounds int
	// SetupReps is how many times set-up runs; setup_s is the median.
	// Set-ups of a few milliseconds need more repetitions to be steady.
	SetupReps int
}

var workloads = []workloadSpec{
	{"ingest", "200k 1.2KB DPI packets per round into a 3x-replicated topic, then a full drain: pure data plane per byte, no cache/cluster/gateway/tables", 18, 9},
	{"warehouse", "200k TPC-H lineitem rows inserted, then selective and full-scan SQL with a cache smaller than the table: query, table and cache layers only", 1, 3},
	{"pipeline", "China Mobile flow: EC(4,2) produce, stream-to-table conversion with delete_msg, DAU queries, update, compaction: the one-copy reunion path", 11, 9},
	{"rest", "100k single-message POSTs, a GET drain and SQL through the gateway with two tenants: per-request overhead above the data plane", 12, 9},
	{"cluster", "30k sends on a 3-node lake where every ack waits for a metadata quorum, with a follower killed and revived: the cluster plane", 13, 9},
}

type metricSpec struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which the metric may
	// worsen before a change counts as a regression. Exact metrics
	// compared seed by seed (-compare) use exactBound instead.
	Bound float64
	// Exact marks virtual-time and count metrics: for one seed they must
	// be identical in every round of a run and in every run.
	Exact bool
	// On lists the workloads that report the metric; nil means all.
	On []string
}

// exactBound is the bound -compare holds exact metrics to, seed by
// seed. Their Bound in endToEnd is wider only because the driver pools
// runs of ten different seeds, and the inputs differ from seed to seed.
const exactBound = 0.01

// endToEnd lists what a user of the lake sees on every workload, with
// one meaning everywhere. Wall-clock metrics are the best round's (see
// aggregate); virtual and count metrics repeat exactly for a seed.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "round_wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "virt_us_per_op", Unit: "us", Better: "lower", Bound: 0.08, Exact: true},
	{Name: "stored_bytes_per_user_byte", Unit: "ratio", Better: "lower", Bound: 0.12, Exact: true},
	{Name: "alloc_kb_per_op", Unit: "KB", Better: "lower", Bound: 0.05},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

var (
	streamWorkloads = []string{"ingest", "pipeline", "rest", "cluster"}
	drainWorkloads  = []string{"ingest", "rest", "cluster"}
	queryWorkloads  = []string{"warehouse", "pipeline", "rest"}
)

// named are the end-to-end metrics of single phases, reported by the
// workloads that have the phase. BENCHMARK.json's end_to_end list admits
// only metrics every workload reports, so they are listed under
// per_layer there (a traced run reports them from its untraced half,
// zero where they do not apply); -compare holds them to these bounds.
var named = []metricSpec{
	{Name: "produce_kmsgs_per_s", Unit: "kmsgs/s", Better: "higher", Bound: 0.20, On: streamWorkloads},
	{Name: "produce_ack_virt_mean_us", Unit: "us", Better: "lower", Exact: true, On: streamWorkloads},
	{Name: "poll_kmsgs_per_s", Unit: "kmsgs/s", Better: "higher", Bound: 0.20, On: drainWorkloads},
	{Name: "poll_virt_mean_us", Unit: "us", Better: "lower", Exact: true, On: []string{"ingest", "cluster"}},
	{Name: "insert_krows_per_s", Unit: "krows/s", Better: "higher", Bound: 0.20, On: []string{"warehouse"}},
	{Name: "query_sel_wall_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20, On: queryWorkloads},
	{Name: "query_sel_wall_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: []string{"warehouse"}},
	{Name: "query_full_wall_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20, On: []string{"warehouse"}},
	{Name: "query_virt_mean_ms", Unit: "ms", Better: "lower", Exact: true, On: queryWorkloads},
	{Name: "convert_krows_per_s", Unit: "krows/s", Better: "higher", Bound: 0.20, On: []string{"pipeline"}},
	{Name: "freshness_virt_ms", Unit: "ms", Better: "lower", Exact: true, On: []string{"pipeline"}},
}

// on reports whether workload reports the metric.
func (m metricSpec) on(workload string) bool {
	return m.On == nil || slices.Contains(m.On, workload)
}

// reported lists the end-to-end metrics, common and named, that
// workload reports.
func reported(workload string) []metricSpec {
	out := append([]metricSpec(nil), endToEnd...)
	for _, m := range named {
		if m.on(workload) {
			out = append(out, m)
		}
	}
	return out
}

// layers on the lake's paths, top to bottom. Each reports calls and
// self_ms from the ladder, plus the counters listed in perLayer.
var layers = []string{
	"gateway", "tenant", "streamsvc", "bus", "cluster", "streamobj", "shard",
	"plog", "pool", "ec", "cache", "query", "lakehouse", "tableobj", "colfile",
	"convert", "rowcodec",
}

// layerExtras are the per-layer metrics beyond calls and self_ms.
var layerExtras = []metricSpec{
	{Name: "gateway.errors", Unit: "count", Better: "lower"},
	{Name: "tenant.denied", Unit: "count", Better: "lower"},
	{Name: "streamsvc.retries", Unit: "count", Better: "lower"},
	{Name: "streamsvc.send_wall_p99_us", Unit: "us", Better: "lower"},
	{Name: "streamsvc.poll_wall_p99_us", Unit: "us", Better: "lower"},
	{Name: "bus.virt_ms", Unit: "ms", Better: "lower"},
	{Name: "bus.sends_per_batch", Unit: "ratio", Better: "higher"},
	{Name: "cluster.virt_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.log_entries", Unit: "count", Better: "lower"},
	{Name: "cluster.elections", Unit: "count", Better: "lower"},
	{Name: "streamobj.slice_flushes", Unit: "count", Better: "lower"},
	{Name: "streamobj.flush_bytes", Unit: "bytes", Better: "lower"},
	{Name: "streamobj.reclaimed_bytes", Unit: "bytes", Better: "higher"},
	{Name: "plog.append_virt_ms", Unit: "ms", Better: "lower"},
	{Name: "plog.read_virt_ms", Unit: "ms", Better: "lower"},
	{Name: "plog.append_bytes", Unit: "bytes", Better: "lower"},
	{Name: "plog.read_bytes", Unit: "bytes", Better: "lower"},
	{Name: "plog.degraded_appends", Unit: "count", Better: "lower"},
	{Name: "plog.hedged_reads", Unit: "count", Better: "lower"},
	{Name: "pool.write_ops", Unit: "count", Better: "lower"},
	{Name: "pool.write_bytes", Unit: "bytes", Better: "lower"},
	{Name: "pool.read_ops", Unit: "count", Better: "lower"},
	{Name: "pool.read_bytes", Unit: "bytes", Better: "lower"},
	{Name: "pool.virt_ms", Unit: "ms", Better: "lower"},
	{Name: "pool.write_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "ec.encoded_bytes", Unit: "bytes", Better: "lower"},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.evictions", Unit: "count", Better: "lower"},
	{Name: "cache.fill_bytes", Unit: "bytes", Better: "lower"},
	{Name: "query.pushdown_hits", Unit: "count", Better: "higher"},
	{Name: "lakehouse.plan_self_ms", Unit: "ms", Better: "lower"},
	{Name: "lakehouse.scan_self_ms", Unit: "ms", Better: "lower"},
	{Name: "lakehouse.files_planned", Unit: "count", Better: "lower"},
	{Name: "lakehouse.files_pruned_ratio", Unit: "ratio", Better: "higher"},
	{Name: "lakehouse.rows_scanned_per_row_returned", Unit: "ratio", Better: "lower"},
	{Name: "lakehouse.scan_read_bytes", Unit: "bytes", Better: "lower"},
	{Name: "tableobj.commits", Unit: "count", Better: "lower"},
	{Name: "tableobj.files", Unit: "count", Better: "lower"},
	{Name: "colfile.bytes_encoded", Unit: "bytes", Better: "lower"},
	{Name: "colfile.bytes_decoded", Unit: "bytes", Better: "lower"},
	{Name: "convert.rows", Unit: "count", Better: "higher"},
	{Name: "convert.malformed", Unit: "count", Better: "lower"},
	{Name: "convert.virt_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.paths_omitted", Unit: "count", Better: "lower"},
}

// perLayer is everything a traced run reports: the named end-to-end
// metrics, then the layers' own.
func perLayer() []metricSpec {
	return append(append([]metricSpec(nil), named...), layerMetrics()...)
}

// layerMetrics is every metric of a single layer.
func layerMetrics() []metricSpec {
	var out []metricSpec
	for _, l := range layers {
		out = append(out,
			metricSpec{Name: l + ".calls", Unit: "count", Better: "lower"},
			metricSpec{Name: l + ".self_ms", Unit: "ms", Better: "lower"})
	}
	return append(out, layerExtras...)
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
