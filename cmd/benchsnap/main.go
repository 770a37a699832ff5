// Command benchsnap runs a fixed, seeded workload across the whole
// stack and writes a JSON performance snapshot: virtual-time latency
// quantiles from the obs histograms plus every counter and gauge the
// registry holds. scripts/bench.sh drives it to build the repo's bench
// trajectory (one BENCH_<date>.json per run); tier1.sh runs it in
// smoke mode as a fast end-to-end sanity pass.
//
// All latencies in the snapshot are virtual time (sim.Clock), so
// successive snapshots on different machines are comparable: they drift
// only when the modelled costs change, not when the hardware does.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"streamlake"
	"streamlake/internal/lakehouse"
	"streamlake/internal/plog"
	"streamlake/internal/pool"
	"streamlake/internal/sim"
	"streamlake/internal/streamobj"
	"streamlake/internal/workload/mtraffic"
)

type snapshot struct {
	Date       string             `json:"date"`
	Smoke      bool               `json:"smoke"`
	Messages   int                `json:"messages"`
	Queries    int                `json:"queries"`
	Latency    map[string]latency `json:"virtual_latency"`
	Counters   map[string]int64   `json:"counters"`
	Gauges     map[string]float64 `json:"gauges"`
	Resilience resilience         `json:"resilience"`
	Cache      cacheBench         `json:"cache"`
	Speed      speedBench         `json:"speed"`
	Cluster    clusterBench       `json:"cluster"`
	Join       joinBench          `json:"join"`
	Tenant     tenantBench        `json:"tenant"`
	Compress   compressBench      `json:"compress"`
}

// compressBench is the cold-tier compression leg: the same seeded
// columnar-style payload set is appended to two identical lakes-in-
// miniature (a plog manager over an SSD pool with an HDD cold pool) and
// demoted to cold storage, once with compression-on-migrate and once
// without. The snapshot records the bytes each run actually stored on
// the cold devices, the codec mix negotiation picked, and the scan
// latency p99 hot (SSD, raw), cold raw, and cold compressed. The leg is
// self-enforcing: run() fails unless the compressed cold tier holds at
// most 0.7x the raw bytes, both cold scans return byte-identical data,
// and every compressed read still verifies its CRC over the
// uncompressed bytes with zero mismatches.
type compressBench struct {
	RawColdBytes  int64   `json:"raw_cold_bytes"`  // bytes-on-device, compression off
	CompColdBytes int64   `json:"comp_cold_bytes"` // bytes-on-device, compression on
	Ratio         float64 `json:"ratio"`           // comp/raw (ceiling 0.7)
	FlateExtents  int     `json:"flate_extents"`
	RLEExtents    int     `json:"rle_extents"`
	NoneExtents   int     `json:"none_extents"`          // incompressible bailouts
	HotScanP99Ns  int64   `json:"hot_scan_p99_ns"`       // SSD, pre-migration
	ColdRawP99Ns  int64   `json:"cold_raw_scan_p99_ns"`  // HDD, uncompressed
	ColdCompP99Ns int64   `json:"cold_comp_scan_p99_ns"` // HDD, compressed
	Verifications int64   `json:"verifications"`         // CRC checks in the compressed cold scan
}

// joinBench is the elastic-membership leg: a 5-node cluster takes a
// runtime node join mid-workload, and the snapshot records how long
// producers gapped around the membership commit, how many bytes the
// arc migration scheduled against its (1/(N+1))·(1+slack) bound, and
// whether re-replication of the relocated copies finished in budget.
// Self-enforcing like the other legs — run() fails when a ceiling is
// blown, so tier1's benchsnap smoke doubles as the elastic-membership
// regression gate.
type joinBench struct {
	Nodes         int   `json:"nodes"` // before the join
	AckedWrites   int64 `json:"acked_writes"`
	JoinGapNs     int64 `json:"join_gap_ns"` // propose -> first post-commit ack
	MovedBytes    int64 `json:"moved_bytes"` // bytes the arc migration scheduled
	MovedSlices   int   `json:"moved_slices"`
	BoundBytes    int64 `json:"bound_bytes"`    // (live/(N+1))·(1+slack) at join time
	SkippedSlices int   `json:"skipped_slices"` // candidates the bound turned away
	RebalanceNs   int64 `json:"rebalance_ns"`   // re-replication elapsed virtual time
	RebalanceDone bool  `json:"rebalance_complete"`
}

// tenantBench is the noisy-neighbor isolation leg: the same open-loop
// two-tenant workload (a small in-quota victim and a tenant offering
// ~25x the link bandwidth in 128 KiB bursts) runs three ways — victim
// alone for the solo baseline, both tenants with the QoS plane
// enforcing the noisy tenant's quotas, and both tenants on an
// unisolated control lake that models the shared-queue contention. The
// leg is self-enforcing: run() fails unless quota isolation holds the
// victim's produce p99 within 2x its solo baseline while the control
// run collapses past that bound.
type tenantBench struct {
	SoloP99Ns      int64   `json:"solo_p99_ns"`
	IsolatedP99Ns  int64   `json:"isolated_p99_ns"`
	ControlP99Ns   int64   `json:"control_p99_ns"`
	IsolatedRatio  float64 `json:"isolated_ratio"` // isolated / solo (ceiling 2.0)
	ControlRatio   float64 `json:"control_ratio"`  // control / solo (must blow the ceiling)
	VictimAcked    int64   `json:"victim_acked"`
	NoisyAcked     int64   `json:"noisy_acked"`
	NoisyThrottled int64   `json:"noisy_throttled"`
}

// clusterBench is the failover leg: a 5-node cluster loses its metadata
// leader and a storage node mid-workload, and the snapshot records how
// long detection, producer recovery, and re-replication took in virtual
// time. Self-enforcing like the other legs — run() fails when a ceiling
// is blown, so tier1's benchsnap smoke doubles as the failover
// regression gate.
type clusterBench struct {
	Nodes            int   `json:"nodes"`
	AckedWrites      int64 `json:"acked_writes"`
	Elections        int64 `json:"elections"`
	FailoverDetectNs int64 `json:"failover_detect_ns"` // kills -> both deaths committed
	ProducerGapNs    int64 `json:"producer_gap_ns"`    // kills -> first post-failure ack
	RebalanceNs      int64 `json:"rebalance_ns"`       // re-replication elapsed virtual time
	RebalancedBytes  int64 `json:"rebalanced_bytes"`   // bytes re-replicated off the dead node
	RebalanceDone    bool  `json:"rebalance_complete"` // full redundancy restored in budget
}

// speedBench is the hot-path leg: group-commit device-write coalescing,
// scan-path allocations, and zone-map scan pruning, each against its own
// seeded lake. Like the cache leg it is self-enforcing — run() fails
// when a floor is missed, so tier1's benchsnap smoke doubles as the
// hot-path regression gate.
type speedBench struct {
	// Slice-flush device writes for the same seeded append workload,
	// with group commit off (the pre-group-commit behavior: the legacy
	// flush path is taken verbatim) and on at 8 slices per commit.
	GCBaselineWrites int64   `json:"gc_baseline_writes"`
	GCGroupedWrites  int64   `json:"gc_grouped_writes"`
	GCReductionX     float64 `json:"gc_reduction_x"`
	// Heap allocations per operation, measured with runtime.MemStats
	// around fixed produce and scan loops. ScanAllocsBaseline is the
	// number the same scan loop measured before the zero-copy read path
	// and scan-row reuse landed — the denominator of the enforced
	// reduction.
	ProduceAllocsPerOp int64   `json:"produce_allocs_per_op"`
	ScanAllocsPerOp    int64   `json:"scan_allocs_per_op"`
	ScanAllocsBaseline int64   `json:"scan_allocs_baseline"`
	ScanAllocsCut      float64 `json:"scan_allocs_cut"`
	// Files a selective equality query must read, with zone maps off
	// (every file overlaps the probe by min/max, so none prune) and on
	// (per-file blooms rule out the non-matching files).
	PruneFilesOff int     `json:"prune_files_off"`
	PruneFilesOn  int     `json:"prune_files_on"`
	PruneCutX     float64 `json:"prune_cut_x"`
}

// cacheBench is the read-cache leg: a second seeded lake with the
// two-tier cache enabled, measuring cold-vs-warm extent read p99 and
// how many device bytes repeated planning stops reading. The leg is
// self-enforcing — run() fails if the cache stops paying for itself.
type cacheBench struct {
	Enabled       bool    `json:"enabled"`
	ColdReadP99Ns int64   `json:"cold_read_p99_ns"`
	WarmReadP99Ns int64   `json:"warm_read_p99_ns"`
	WarmSpeedupX  float64 `json:"warm_speedup_x"`
	HitRate       float64 `json:"hit_rate"`
	BytesSaved    int64   `json:"bytes_saved"`
	PlanColdBytes int64   `json:"plan_cold_device_bytes"`
	PlanWarmBytes int64   `json:"plan_warm_device_bytes"`
}

// resilience pulls the retry/breaker/hedge/net-fault counters out of
// the general counter map so bench trajectories can track the
// resilience path without grepping metric names. The workload's lossy
// leg guarantees the retry counters are exercised.
type resilience struct {
	Retries      int64 `json:"retries"`
	BreakerSheds int64 `json:"breaker_sheds"`
	BreakerTrips int64 `json:"breaker_trips"`
	Deadlines    int64 `json:"deadline_exceeded"`
	AckDrops     int64 `json:"ack_drops"`
	NetDrops     int64 `json:"net_drops"`
	NetBlocked   int64 `json:"net_blocked"`
	NetDelayed   int64 `json:"net_delayed"`
	HedgedReads  int64 `json:"hedged_reads"`
	HedgeWins    int64 `json:"hedge_wins"`
	HedgeSavedNs int64 `json:"hedge_saved_ns"`
}

type latency struct {
	Count  int64 `json:"count"`
	P50Ns  int64 `json:"p50_ns"`
	P99Ns  int64 `json:"p99_ns"`
	MeanNs int64 `json:"mean_ns"`
}

func main() {
	smoke := flag.Bool("smoke", false, "small workload for CI smoke runs")
	out := flag.String("out", "", "output path (default BENCH_<date>.json)")
	flag.Parse()
	if err := run(*smoke, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
}

func run(smoke bool, out string) error {
	messages, queries := 20000, 50
	if smoke {
		messages, queries = 2000, 5
	}
	lake, err := streamlake.Open(streamlake.Config{Seed: 7})
	if err != nil {
		return err
	}
	schema := streamlake.MustSchema("k:string", "v:int64")
	if err := lake.CreateTopic(streamlake.TopicConfig{
		Name: "bench", StreamNum: 4,
		Convert: streamlake.ConvertConfig{
			Enabled: true, TableName: "bench_t", TablePath: "/bench_t",
			TableSchema: schema,
		},
	}); err != nil {
		return err
	}
	p := lake.Producer("benchsnap")
	for i := 0; i < messages; i++ {
		row := streamlake.Row{
			streamlake.StringValue(fmt.Sprintf("k%d", i%101)),
			streamlake.IntValue(int64(i)),
		}
		val, err := streamlake.EncodeRow(schema, row)
		if err != nil {
			return err
		}
		if _, _, err := p.Send("bench", []byte(fmt.Sprintf("k%d", i%101)), val); err != nil {
			return err
		}
	}
	c := lake.Consumer("bench-g")
	if err := c.Subscribe("bench"); err != nil {
		return err
	}
	for {
		msgs, _, err := c.Poll(512)
		if err != nil {
			return err
		}
		if len(msgs) == 0 {
			break
		}
	}
	if _, _, err := lake.ConvertNow("bench"); err != nil {
		return err
	}
	for i := 0; i < queries; i++ {
		if _, err := lake.Query("select count(*) from bench_t"); err != nil {
			return err
		}
	}
	if _, err := lake.RunScrub(); err != nil {
		return err
	}
	// Lossy leg: the same produce path under a 20% forward drop rate, so
	// the snapshot's resilience counters reflect real retry traffic. The
	// net plane's RNG is seeded, so the drops replay identically.
	lake.Net().SetDropRate("client", "*", 0.2)
	for i := 0; i < messages/20; i++ {
		val, err := streamlake.EncodeRow(schema, streamlake.Row{
			streamlake.StringValue("lossy"), streamlake.IntValue(int64(i)),
		})
		if err != nil {
			return err
		}
		// A send that exhausts its retry budget is a legitimate outcome
		// under a 20% drop rate (p ≈ 0.2^4 per message), not a workload
		// failure — it still feeds the retry counters this leg exists to
		// exercise. Aborting here made full-size runs fail ~once per
		// thousand lossy sends.
		p.Send("bench", []byte(fmt.Sprintf("k%d", i%101)), val)
	}
	lake.Net().Clear()

	snap := lake.Obs().Snapshot()
	net := lake.Net().Stats()
	hs := lake.HedgeStats()
	result := snapshot{
		Date:     time.Now().UTC().Format("2006-01-02T15:04:05Z"),
		Smoke:    smoke,
		Messages: messages,
		Queries:  queries,
		Latency:  map[string]latency{},
		Counters: snap.Counters,
		Gauges:   snap.Gauges,
		Resilience: resilience{
			Retries:      snap.Counters["streamsvc_retries_total"],
			BreakerSheds: snap.Counters["streamsvc_breaker_sheds_total"],
			BreakerTrips: snap.Counters["streamsvc_breaker_trips_total"],
			Deadlines:    snap.Counters["streamsvc_deadline_exceeded_total"],
			AckDrops:     snap.Counters["streamsvc_ack_drops_total"],
			NetDrops:     net.Drops,
			NetBlocked:   net.Blocked,
			NetDelayed:   net.Delayed,
			HedgedReads:  hs.Hedged,
			HedgeWins:    hs.Wins,
			HedgeSavedNs: hs.Saved.Nanoseconds(),
		},
	}
	for name, h := range snap.Histograms {
		if h.Count == 0 {
			continue
		}
		result.Latency[name] = latency{
			Count:  h.Count,
			P50Ns:  h.Quantile(0.50).Nanoseconds(),
			P99Ns:  h.Quantile(0.99).Nanoseconds(),
			MeanNs: h.Mean().Nanoseconds(),
		}
	}
	cb, err := cacheLeg(smoke)
	if err != nil {
		return err
	}
	result.Cache = cb
	sb, err := speedLeg(smoke)
	if err != nil {
		return err
	}
	result.Speed = sb
	clb, err := clusterLeg(smoke)
	if err != nil {
		return err
	}
	result.Cluster = clb
	jb, err := joinLeg(smoke)
	if err != nil {
		return err
	}
	result.Join = jb
	tb, err := tenantLeg(smoke)
	if err != nil {
		return err
	}
	result.Tenant = tb
	xb, err := compressLeg(smoke)
	if err != nil {
		return err
	}
	result.Compress = xb

	if out == "" {
		out = "BENCH_" + time.Now().UTC().Format("2006-01-02") + ".json"
	}
	blob, err := json.MarshalIndent(result, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("benchsnap: %d messages, %d queries -> %s\n", messages, queries, out)
	fmt.Printf("benchsnap: cache leg cold p99=%dns warm p99=%dns hit rate=%.1f%% plan bytes %d -> %d\n",
		cb.ColdReadP99Ns, cb.WarmReadP99Ns, cb.HitRate*100, cb.PlanColdBytes, cb.PlanWarmBytes)
	fmt.Printf("benchsnap: speed leg gc writes %d -> %d (%.1fx), scan allocs/op %d (cut %.0f%%), prune files %d -> %d (%.1fx)\n",
		sb.GCBaselineWrites, sb.GCGroupedWrites, sb.GCReductionX,
		sb.ScanAllocsPerOp, sb.ScanAllocsCut*100, sb.PruneFilesOff, sb.PruneFilesOn, sb.PruneCutX)
	fmt.Printf("benchsnap: cluster leg detect=%.1fms gap=%.1fms rebalance=%.1fms (%dB, complete=%v)\n",
		float64(clb.FailoverDetectNs)/1e6, float64(clb.ProducerGapNs)/1e6,
		float64(clb.RebalanceNs)/1e6, clb.RebalancedBytes, clb.RebalanceDone)
	fmt.Printf("benchsnap: join leg gap=%.1fms moved=%dB/%d slices (bound %dB, skipped %d) rebalance=%.1fms complete=%v\n",
		float64(jb.JoinGapNs)/1e6, jb.MovedBytes, jb.MovedSlices, jb.BoundBytes, jb.SkippedSlices,
		float64(jb.RebalanceNs)/1e6, jb.RebalanceDone)
	fmt.Printf("benchsnap: tenant leg victim p99 solo=%.2fms isolated=%.2fms (%.2fx) control=%.2fms (%.1fx), noisy throttled %d/%d\n",
		float64(tb.SoloP99Ns)/1e6, float64(tb.IsolatedP99Ns)/1e6, tb.IsolatedRatio,
		float64(tb.ControlP99Ns)/1e6, tb.ControlRatio, tb.NoisyThrottled, tb.NoisyThrottled+tb.NoisyAcked)
	fmt.Printf("benchsnap: compress leg cold bytes %d -> %d (%.2fx, flate=%d rle=%d none=%d), scan p99 hot=%dns cold raw=%dns cold comp=%dns\n",
		xb.RawColdBytes, xb.CompColdBytes, xb.Ratio, xb.FlateExtents, xb.RLEExtents, xb.NoneExtents,
		xb.HotScanP99Ns, xb.ColdRawP99Ns, xb.ColdCompP99Ns)
	return nil
}

// tenantLeg runs the noisy-neighbor drill and enforces the isolation
// ceiling. All three runs share one seed and the same open-loop
// arrival schedules, so the only variable is whether the QoS plane
// stands between the tenants.
func tenantLeg(smoke bool) (tenantBench, error) {
	events := 8000
	if smoke {
		events = 2000
	}
	// The victim is a paced, in-quota tenant: 512 B values every 400 µs.
	// The noisy tenant offers 128 KiB values every ~10 µs — about 12.8
	// GB/s against a ~5.4 GB/s modelled link — so without quotas it owns
	// every shared queue it touches.
	victim := mtraffic.TenantSpec{Name: "victim", Producers: 64, ValueBytes: 512, MeanGap: 400 * time.Microsecond}
	noisy := mtraffic.TenantSpec{Name: "noisy", Producers: 2000, ValueBytes: 128 << 10, MeanGap: 10 * time.Microsecond, DiurnalAmp: 0.5}
	victimCfg := streamlake.TenantConfig{Name: "victim", Weight: 4}
	noisyCfg := streamlake.TenantConfig{Name: "noisy", Weight: 1, Priority: 1, BandwidthBps: 2 << 20}

	// control attaches the unisolated shared-queue contention model in
	// place of the QoS plane: one tenant's backlog delays everyone in
	// its priority class.
	run := func(tenants []streamlake.TenantConfig, control bool, ev int, specs ...mtraffic.TenantSpec) (mtraffic.Result, error) {
		lake, err := streamlake.Open(streamlake.Config{Seed: 7, Tenants: tenants})
		if err != nil {
			return mtraffic.Result{}, err
		}
		if control {
			lake.Service().SetContention()
		}
		if err := lake.CreateTopic(streamlake.TopicConfig{Name: "mt", StreamNum: 4}); err != nil {
			return mtraffic.Result{}, err
		}
		return mtraffic.Run(lake, mtraffic.Config{Topic: "mt", Seed: 7, Events: ev, Tenants: specs})
	}
	solo, err := run([]streamlake.TenantConfig{victimCfg}, false, events/8, victim)
	if err != nil {
		return tenantBench{}, fmt.Errorf("tenant leg solo: %w", err)
	}
	iso, err := run([]streamlake.TenantConfig{victimCfg, noisyCfg}, false, events, victim, noisy)
	if err != nil {
		return tenantBench{}, fmt.Errorf("tenant leg isolated: %w", err)
	}
	ctl, err := run(nil, true, events, victim, noisy)
	if err != nil {
		return tenantBench{}, fmt.Errorf("tenant leg control: %w", err)
	}

	soloV, _ := solo.Tenant("victim")
	isoV, _ := iso.Tenant("victim")
	isoN, _ := iso.Tenant("noisy")
	ctlV, _ := ctl.Tenant("victim")
	tb := tenantBench{
		SoloP99Ns:      soloV.P99.Nanoseconds(),
		IsolatedP99Ns:  isoV.P99.Nanoseconds(),
		ControlP99Ns:   ctlV.P99.Nanoseconds(),
		VictimAcked:    isoV.Acked,
		NoisyAcked:     isoN.Acked,
		NoisyThrottled: isoN.Throttled,
	}
	if tb.SoloP99Ns > 0 {
		tb.IsolatedRatio = float64(tb.IsolatedP99Ns) / float64(tb.SoloP99Ns)
		tb.ControlRatio = float64(tb.ControlP99Ns) / float64(tb.SoloP99Ns)
	}

	// The isolation contract. Quota admission must be doing real work
	// (the noisy tenant saturates and throttles), the in-quota victim
	// must never be denied, its p99 must hold within 2x solo, and the
	// unisolated control must actually show the collapse the QoS plane
	// prevents — otherwise the leg proves nothing.
	if soloV.Acked == 0 || soloV.Acked != soloV.Offered {
		return tb, fmt.Errorf("tenant leg: degenerate solo baseline: %+v", soloV)
	}
	if isoV.Acked != isoV.Offered {
		return tb, fmt.Errorf("tenant leg: in-quota victim denied %d of %d sends", isoV.Offered-isoV.Acked, isoV.Offered)
	}
	if isoN.Throttled == 0 {
		return tb, fmt.Errorf("tenant leg: noisy tenant never hit its quota: %+v", isoN)
	}
	if tb.IsolatedRatio > 2 {
		return tb, fmt.Errorf("tenant leg: victim p99 %.2fx solo under isolation, ceiling 2x (solo=%dns isolated=%dns)",
			tb.IsolatedRatio, tb.SoloP99Ns, tb.IsolatedP99Ns)
	}
	if tb.ControlRatio <= 2 {
		return tb, fmt.Errorf("tenant leg: control run held victim p99 at %.2fx solo — contention model shows no collapse to isolate against",
			tb.ControlRatio)
	}
	return tb, nil
}

// clusterLeg runs the scripted failover drill: healthy traffic, kill
// the metadata leader plus one storage node, keep producing through the
// outage, then re-replicate the dead nodes' slices — all in virtual
// time, all seeded.
func clusterLeg(smoke bool) (clusterBench, error) {
	warm := 400
	if smoke {
		warm = 100
	}
	lake, err := streamlake.Open(streamlake.Config{
		Nodes:        5,
		Workers:      5,
		SSDDisks:     10,
		Seed:         7,
		PLogCapacity: 1 << 20,
	})
	if err != nil {
		return clusterBench{}, err
	}
	cl := lake.Cluster()
	cb := clusterBench{Nodes: 5}
	if err := lake.CreateTopic(streamlake.TopicConfig{Name: "clbench", StreamNum: 4}); err != nil {
		return cb, err
	}
	prod := lake.Producer("clbench")
	send := func(i int) bool {
		_, _, err := prod.Send("clbench", []byte(fmt.Sprintf("k%06d", i)), []byte(fmt.Sprintf("v%06d", i)))
		if err == nil {
			cb.AckedWrites++
		}
		return err == nil
	}
	for i := 0; i < warm; i++ {
		if !send(i) {
			return cb, fmt.Errorf("cluster leg: healthy send %d failed", i)
		}
		if i%16 == 0 {
			lake.Clock().Advance(time.Millisecond)
			cl.Tick()
		}
	}
	leader := cl.Leader()
	storage := (leader + 2) % 5
	killAt := lake.Clock().Now()
	if err := cl.KillNode(leader); err != nil {
		return cb, err
	}
	if err := cl.KillNode(storage); err != nil {
		return cb, err
	}
	for i := 0; i < 400; i++ {
		lake.Clock().Advance(time.Millisecond)
		cl.Tick()
		v := cl.CurrentView()
		if cb.FailoverDetectNs == 0 && !v.Alive[leader] && !v.Alive[storage] {
			cb.FailoverDetectNs = int64(lake.Clock().Now() - killAt)
		}
		if cb.ProducerGapNs == 0 && send(warm+i) {
			cb.ProducerGapNs = int64(lake.Clock().Now() - killAt)
		}
		if cb.FailoverDetectNs > 0 && cb.ProducerGapNs > 0 {
			break
		}
	}
	if cb.FailoverDetectNs == 0 {
		return cb, fmt.Errorf("cluster leg: node deaths never committed")
	}
	if cb.ProducerGapNs == 0 {
		return cb, fmt.Errorf("cluster leg: producers never recovered")
	}
	reb := cl.RunRebalance(2 * time.Second)
	cb.RebalanceNs = int64(reb.Elapsed)
	cb.RebalancedBytes = reb.RepairedBytes
	cb.RebalanceDone = reb.Complete
	cb.Elections = cl.Stats().Elections

	// The ceilings. Detection must land within 4x the detector's full
	// reaction window, producers must be acking again shortly after, and
	// re-replication must finish inside its virtual-time budget.
	if ceiling := (80 * time.Millisecond).Nanoseconds(); cb.FailoverDetectNs > ceiling {
		return cb, fmt.Errorf("cluster leg: detection took %dns, ceiling %dns", cb.FailoverDetectNs, ceiling)
	}
	if ceiling := (120 * time.Millisecond).Nanoseconds(); cb.ProducerGapNs > ceiling {
		return cb, fmt.Errorf("cluster leg: producer gap %dns, ceiling %dns", cb.ProducerGapNs, ceiling)
	}
	if !cb.RebalanceDone {
		return cb, fmt.Errorf("cluster leg: rebalance incomplete after %dns", cb.RebalanceNs)
	}
	if ceiling := (2 * time.Second).Nanoseconds(); cb.RebalanceNs > ceiling {
		return cb, fmt.Errorf("cluster leg: rebalance took %dns, ceiling %dns", cb.RebalanceNs, ceiling)
	}
	return cb, nil
}

// joinLeg runs the elastic-membership drill: bulk traffic flushes
// durable slices on a 5-node cluster, a sixth node joins mid-workload
// through the replicated metadata log, and the leg enforces the three
// elastic ceilings — producer gap around the join, bytes moved against
// the (1/(N+1))·(1+slack) bound, and re-replication inside its budget.
func joinLeg(smoke bool) (joinBench, error) {
	warm := 1400
	if smoke {
		warm = 700
	}
	lake, err := streamlake.Open(streamlake.Config{
		Nodes:        5,
		Workers:      5,
		SSDDisks:     10,
		Seed:         7,
		PLogCapacity: 1 << 20,
	})
	if err != nil {
		return joinBench{}, err
	}
	cl := lake.Cluster()
	jb := joinBench{Nodes: 5}
	if err := lake.CreateTopic(streamlake.TopicConfig{Name: "joinbench", StreamNum: 2}); err != nil {
		return jb, err
	}
	prod := lake.Producer("joinbench")
	payload := strings.Repeat("j", 512)
	send := func(i int) bool {
		_, _, err := prod.Send("joinbench", []byte(fmt.Sprintf("k%06d", i)), []byte(payload))
		if err == nil {
			jb.AckedWrites++
		}
		return err == nil
	}
	// Bulk phase: 512 B payloads flush real durable slices, so the join
	// has live bytes to migrate — a join that moves nothing proves
	// nothing about the bound.
	for i := 0; i < warm; i++ {
		if !send(i) {
			return jb, fmt.Errorf("join leg: healthy send %d failed", i)
		}
		if i%32 == 0 {
			lake.Clock().Advance(time.Millisecond)
			cl.Tick()
		}
	}
	joinAt := lake.Clock().Now()
	if err := cl.ProposeJoin(5); err != nil {
		return jb, fmt.Errorf("join leg: propose: %w", err)
	}
	rep := cl.LastJoin()
	jb.MovedBytes = rep.MovedBytes
	jb.MovedSlices = rep.MovedSlices
	jb.BoundBytes = rep.BoundBytes
	jb.SkippedSlices = rep.Skipped
	recovered := false
	for i := 0; i < 400 && !recovered; i++ {
		if send(warm + i) {
			// A zero gap is a legitimate (and ideal) outcome: the
			// membership commit never stalled the producer at all.
			jb.JoinGapNs = int64(lake.Clock().Now() - joinAt)
			recovered = true
			break
		}
		lake.Clock().Advance(time.Millisecond)
		cl.Tick()
	}
	if !recovered {
		return jb, fmt.Errorf("join leg: producers never recovered after the join")
	}
	reb := cl.RunRebalance(2 * time.Second)
	jb.RebalanceNs = int64(reb.Elapsed)
	jb.RebalanceDone = reb.Complete

	// The ceilings. The join must actually migrate data, stay inside the
	// movement bound, keep the producer gap under the elastic ceiling,
	// and re-replicate the relocated copies inside the budget.
	if jb.MovedBytes == 0 {
		return jb, fmt.Errorf("join leg: join migrated nothing — bulk phase left no live bytes")
	}
	if jb.MovedBytes > jb.BoundBytes {
		return jb, fmt.Errorf("join leg: moved %dB over the %dB bound", jb.MovedBytes, jb.BoundBytes)
	}
	if ceiling := (120 * time.Millisecond).Nanoseconds(); jb.JoinGapNs > ceiling {
		return jb, fmt.Errorf("join leg: producer gap %dns, ceiling %dns", jb.JoinGapNs, ceiling)
	}
	if !jb.RebalanceDone {
		return jb, fmt.Errorf("join leg: re-replication incomplete after %dns", jb.RebalanceNs)
	}
	if ceiling := (2 * time.Second).Nanoseconds(); jb.RebalanceNs > ceiling {
		return jb, fmt.Errorf("join leg: re-replication took %dns, ceiling %dns", jb.RebalanceNs, ceiling)
	}
	return jb, nil
}

// cacheLeg runs the read-cache benchmark against its own lake so the
// main workload's numbers stay byte-identical to cache-less runs, then
// enforces the cache's performance floor.
func cacheLeg(smoke bool) (cacheBench, error) {
	rows := 2000
	if smoke {
		rows = 500
	}
	lake, err := streamlake.Open(streamlake.Config{Seed: 7, CacheMB: 64})
	if err != nil {
		return cacheBench{}, err
	}
	schema := streamlake.MustSchema("k:string", "v:int64")
	if err := lake.CreateTable(streamlake.TableMeta{Name: "cache_t", Schema: schema}); err != nil {
		return cacheBench{}, err
	}
	pad := strings.Repeat("x", 200)
	for i := 0; i < rows; i++ {
		if err := lake.Insert("cache_t", []streamlake.Row{{
			streamlake.StringValue(fmt.Sprintf("key-%06d-%s", i, pad)),
			streamlake.IntValue(int64(i)),
		}}); err != nil {
			return cacheBench{}, err
		}
	}
	if err := lake.FlushTable("cache_t"); err != nil {
		return cacheBench{}, err
	}

	// Plan-cost probe: the cold plan reads snapshot metadata off the
	// devices; warm plans must serve it from the cache.
	deviceBytes := func() int64 {
		p := lake.Logs().Pool()
		var total int64
		for i := 0; i < p.DiskCount(); i++ {
			total += p.DiskStats(pool.DiskID(i)).ReadBytes
		}
		return total
	}
	base := deviceBytes()
	if _, _, err := lake.Engine().PlanScan("cache_t", nil); err != nil {
		return cacheBench{}, err
	}
	planCold := deviceBytes() - base
	base = deviceBytes()
	for i := 0; i < 10; i++ {
		if _, _, err := lake.Engine().PlanScan("cache_t", nil); err != nil {
			return cacheBench{}, err
		}
	}
	planWarm := deviceBytes() - base

	// Extent-read probe: sweep every live log in 4 KiB chunks, once cold
	// (verified fills off the devices) and twice warm (cache hits), and
	// compare the virtual-time p99s.
	const chunk = 4096
	var cold, warm []time.Duration
	infos := lake.Logs().Logs()
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	for pass := 0; pass < 3; pass++ {
		for _, li := range infos {
			l := lake.Logs().Get(li.ID)
			if l == nil {
				continue
			}
			for off := int64(0); off < li.Size; off += chunk {
				n := int64(chunk)
				if off+n > li.Size {
					n = li.Size - off
				}
				_, cost, err := l.Read(off, n)
				if err != nil {
					return cacheBench{}, err
				}
				if pass == 0 {
					cold = append(cold, cost)
				} else {
					warm = append(warm, cost)
				}
			}
		}
	}
	st := lake.Cache().Stats()
	lookups := st.DRAMHits + st.SCMHits + st.Misses
	cb := cacheBench{
		Enabled:       true,
		ColdReadP99Ns: p99ns(cold),
		WarmReadP99Ns: p99ns(warm),
		HitRate:       float64(st.DRAMHits+st.SCMHits) / float64(max64(lookups, 1)),
		BytesSaved:    st.BytesSaved,
		PlanColdBytes: planCold,
		PlanWarmBytes: planWarm,
	}
	if cb.WarmReadP99Ns > 0 {
		cb.WarmSpeedupX = float64(cb.ColdReadP99Ns) / float64(cb.WarmReadP99Ns)
	}

	// The floor the cache must clear, or the snapshot is a regression.
	if cb.HitRate < 0.5 {
		return cb, fmt.Errorf("cache leg: hit rate %.2f below 0.5 floor", cb.HitRate)
	}
	if cb.WarmReadP99Ns*5 > cb.ColdReadP99Ns {
		return cb, fmt.Errorf("cache leg: warm p99 %dns not 5x under cold %dns", cb.WarmReadP99Ns, cb.ColdReadP99Ns)
	}
	if planCold == 0 || planWarm > planCold/10 {
		return cb, fmt.Errorf("cache leg: warm planning read %dB of metadata (cold %dB)", planWarm, planCold)
	}
	return cb, nil
}

// speedLeg benchmarks the three hot-path mechanisms against dedicated
// lakes and enforces their floors: group commit must at least halve
// slice-flush device writes, the scan path must hold its allocs/op at
// the pinned ceiling (half the pre-zero-copy baseline), and zone maps must cut a
// selective query's files-read by at least 5x.
func speedLeg(smoke bool) (speedBench, error) {
	var sb speedBench

	// Group-commit probe: the same seeded append stream into two stream
	// object stores, one committing slice by slice (group-commit target
	// 1, the default), one coalescing 8 slices per device commit. Only slice flushes write to these pools,
	// so the write-op delta is the coalescing, isolated.
	appends := 8 * 1024
	if smoke {
		appends = 4 * 1024
	}
	gcRun := func(slices int) (int64, error) {
		clock := sim.NewClock()
		p := pool.New("speed-gc", clock, sim.NVMeSSD, 6, 64<<20)
		store := streamobj.NewStore(clock, plog.NewManager(p, 16<<20))
		store.EnableGroupCommit(slices)
		o, err := store.Create(streamobj.CreateOptions{Topic: "bench"})
		if err != nil {
			return 0, err
		}
		for i := 0; i < appends; i++ {
			r := streamobj.Record{Key: []byte(fmt.Sprintf("k%06d", i)), Value: []byte(fmt.Sprintf("v%06d", i))}
			if _, _, err := o.Append([]streamobj.Record{r}, "p", int64(i+1)); err != nil {
				return 0, err
			}
		}
		if _, err := o.Flush(); err != nil {
			return 0, err
		}
		var writes int64
		for i := 0; i < 6; i++ {
			writes += p.DiskStats(pool.DiskID(i)).WriteOps
		}
		return writes, nil
	}
	var err error
	if sb.GCBaselineWrites, err = gcRun(1); err != nil {
		return sb, err
	}
	if sb.GCGroupedWrites, err = gcRun(8); err != nil {
		return sb, err
	}
	sb.GCReductionX = float64(sb.GCBaselineWrites) / float64(max64(sb.GCGroupedWrites, 1))

	// Allocation probe: allocs per produce and per full-table scan.
	// 41040 is what this exact scan loop measured before the zero-copy
	// read path and scan-row reuse (per-row colfile.Row allocation)
	// landed. The ceiling sits 1% above today's count, of which 20000
	// are the scan's own distinct key strings: pooled inflate state took
	// it from 21021 to 20548, and losing that fails the snapshot.
	lake, err := streamlake.Open(streamlake.Config{Seed: 7})
	if err != nil {
		return sb, err
	}
	schema := streamlake.MustSchema("k:string", "v:int64")
	if err := lake.CreateTable(streamlake.TableMeta{Name: "speed_t", Path: "/speed_t", Schema: schema}); err != nil {
		return sb, err
	}
	rows := make([]streamlake.Row, 0, 20000)
	for i := 0; i < 20000; i++ {
		rows = append(rows, streamlake.Row{
			streamlake.StringValue(fmt.Sprintf("key-%06d", i)),
			streamlake.IntValue(int64(i)),
		})
	}
	for i := 0; i < len(rows); i += 1000 {
		if err := lake.Insert("speed_t", rows[i:i+1000]); err != nil {
			return sb, err
		}
	}
	if err := lake.FlushTable("speed_t"); err != nil {
		return sb, err
	}
	if err := lake.CreateTopic(streamlake.TopicConfig{Name: "speed", StreamNum: 4}); err != nil {
		return sb, err
	}
	prod := lake.Producer("speed-prod")
	val, err := streamlake.EncodeRow(schema, rows[0])
	if err != nil {
		return sb, err
	}
	produceOnce := func(i int) error {
		_, _, err := prod.Send("speed", []byte(fmt.Sprintf("k%d", i%101)), val)
		return err
	}
	plan, _, err := lake.Engine().PlanScan("speed_t", nil)
	if err != nil {
		return sb, err
	}
	scanOnce := func() error {
		var n int64
		if _, _, err := lake.Engine().Scan("speed_t", plan, nil, func(r streamlake.Row) bool { n++; return true }); err != nil {
			return err
		}
		if n != 20000 {
			return fmt.Errorf("speed leg: scan saw %d rows", n)
		}
		return nil
	}
	if err := scanOnce(); err != nil { // warm code paths before measuring
		return sb, err
	}
	var m0, m1 runtime.MemStats
	const produceOps = 2000
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < produceOps; i++ {
		if err := produceOnce(i); err != nil {
			return sb, err
		}
	}
	runtime.ReadMemStats(&m1)
	sb.ProduceAllocsPerOp = int64(m1.Mallocs-m0.Mallocs) / produceOps
	const scanOps = 20
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < scanOps; i++ {
		if err := scanOnce(); err != nil {
			return sb, err
		}
	}
	runtime.ReadMemStats(&m1)
	sb.ScanAllocsPerOp = int64(m1.Mallocs-m0.Mallocs) / scanOps
	sb.ScanAllocsBaseline = 41040
	sb.ScanAllocsCut = 1 - float64(sb.ScanAllocsPerOp)/float64(sb.ScanAllocsBaseline)

	// Prune probe: 16 files whose min/max ranges all cover the whole key
	// space (keys dealt round-robin), probed with an equality predicate
	// only one file can satisfy — the skewed query zone maps exist for.
	const pruneFiles, perFile = 16, 200
	pruneRun := func(zoneMaps bool) (int, error) {
		l, err := streamlake.Open(streamlake.Config{Seed: 7, ZoneMaps: zoneMaps})
		if err != nil {
			return 0, err
		}
		if err := l.CreateTable(streamlake.TableMeta{Name: "zm_t", Path: "/zm_t", Schema: schema}); err != nil {
			return 0, err
		}
		for fi := 0; fi < pruneFiles; fi++ {
			batch := make([]streamlake.Row, 0, perFile)
			for i := 0; i < perFile; i++ {
				k := int64(i*pruneFiles + fi)
				batch = append(batch, streamlake.Row{
					streamlake.StringValue(fmt.Sprintf("key-%06d", k)),
					streamlake.IntValue(k),
				})
			}
			if err := l.Insert("zm_t", batch); err != nil {
				return 0, err
			}
		}
		probe := int64(100*pruneFiles + 5) // mid-range: inside every file's min/max
		v := streamlake.IntValue(probe)
		p, _, err := l.Engine().PlanScan("zm_t", []lakehouse.RangeFilter{{Column: "v", Lo: &v, Hi: &v}})
		if err != nil {
			return 0, err
		}
		return len(p.Files), nil
	}
	if sb.PruneFilesOff, err = pruneRun(false); err != nil {
		return sb, err
	}
	if sb.PruneFilesOn, err = pruneRun(true); err != nil {
		return sb, err
	}
	sb.PruneCutX = float64(sb.PruneFilesOff) / float64(maxInt(sb.PruneFilesOn, 1))

	// The floors. Miss any and the snapshot is a hot-path regression.
	if sb.GCReductionX < 2 {
		return sb, fmt.Errorf("speed leg: group commit cut device writes %.2fx, floor is 2x (%d -> %d)",
			sb.GCReductionX, sb.GCBaselineWrites, sb.GCGroupedWrites)
	}
	if sb.ScanAllocsPerOp > 20800 {
		return sb, fmt.Errorf("speed leg: scan allocs/op %d above the 20800 ceiling (baseline %d, 20548 at pin time)",
			sb.ScanAllocsPerOp, sb.ScanAllocsBaseline)
	}
	if sb.ProduceAllocsPerOp > 64 {
		return sb, fmt.Errorf("speed leg: produce allocs/op %d above the 64 ceiling (12 at pin time)", sb.ProduceAllocsPerOp)
	}
	if sb.PruneCutX < 5 {
		return sb, fmt.Errorf("speed leg: zone maps cut files-read %.2fx, floor is 5x (%d -> %d)",
			sb.PruneCutX, sb.PruneFilesOff, sb.PruneFilesOn)
	}
	return sb, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func p99ns(durs []time.Duration) int64 {
	if len(durs) == 0 {
		return 0
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	return durs[len(durs)*99/100].Nanoseconds()
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// compressPayload builds one deterministic columnar-style extent: runs
// of zero padding interleaved with low-cardinality dictionary-ish text,
// the shape the RLE/flate negotiation exists for. i varies the content
// so extents don't degenerate into one repeated block.
func compressPayload(i, n int) []byte {
	b := make([]byte, n)
	for j := range b {
		switch {
		case j%8 < 5:
			// run-heavy column padding
		case j%8 == 5:
			b[j] = byte('a' + (i+j/8)%17)
		default:
			b[j] = byte('0' + (i*7+j)%10)
		}
	}
	return b
}

// compressLeg demotes the same payload set to cold storage with and
// without compression-on-migrate and enforces the bytes-on-device
// ceiling: the compressed cold tier must hold at most 0.7x the raw
// bytes while every scan stays byte-identical and CRC-verified.
func compressLeg(smoke bool) (compressBench, error) {
	logs, extents := 24, 12
	if smoke {
		logs, extents = 8, 6
	}
	const extentLen = 4096

	type miniLake struct {
		m   *plog.Manager
		hdd *pool.Pool
		ids []plog.ID
	}
	build := func(compressed bool) (*miniLake, []time.Duration, error) {
		clock := sim.NewClock()
		ssd := pool.New("bench-ssd", clock, sim.NVMeSSD, 6, 0)
		hdd := pool.New("bench-hdd", clock, sim.SASHDD, 6, 0)
		m := plog.NewManager(ssd, 1<<20)
		if compressed {
			m.SetCompression(hdd)
		}
		ml := &miniLake{m: m, hdd: hdd}
		var hot []time.Duration
		for li := 0; li < logs; li++ {
			l, err := m.Create(plog.ReplicateN(3))
			if err != nil {
				return nil, nil, err
			}
			for e := 0; e < extents; e++ {
				if _, _, err := l.Append(compressPayload(li*extents+e, extentLen)); err != nil {
					return nil, nil, err
				}
			}
			l.Seal()
			// Hot scan: the pre-migration SSD baseline.
			for e := 0; e < extents; e++ {
				_, cost, err := l.Read(int64(e)*extentLen, extentLen)
				if err != nil {
					return nil, nil, err
				}
				hot = append(hot, cost)
			}
			if _, err := l.Migrate(hdd); err != nil {
				return nil, nil, err
			}
			ml.ids = append(ml.ids, l.ID())
		}
		return ml, hot, nil
	}
	scan := func(ml *miniLake) ([][]byte, []time.Duration, error) {
		var data [][]byte
		var costs []time.Duration
		for _, id := range ml.ids {
			l := ml.m.Get(id)
			for e := 0; e < extents; e++ {
				got, cost, err := l.Read(int64(e)*extentLen, extentLen)
				if err != nil {
					return nil, nil, err
				}
				data = append(data, got)
				costs = append(costs, cost)
			}
		}
		return data, costs, nil
	}

	raw, hot, err := build(false)
	if err != nil {
		return compressBench{}, err
	}
	comp, _, err := build(true)
	if err != nil {
		return compressBench{}, err
	}
	rawData, rawCosts, err := scan(raw)
	if err != nil {
		return compressBench{}, err
	}
	preVerifs := comp.m.IntegrityStats().Verifications
	compData, compCosts, err := scan(comp)
	if err != nil {
		return compressBench{}, err
	}
	integ := comp.m.IntegrityStats()

	cs := comp.m.CompressionStats()
	cb := compressBench{
		RawColdBytes:  raw.hdd.Stats().Live,
		CompColdBytes: comp.hdd.Stats().Live,
		FlateExtents:  cs.FlateExtents,
		RLEExtents:    cs.RLEExtents,
		NoneExtents:   cs.NoneExtents,
		HotScanP99Ns:  p99ns(hot),
		ColdRawP99Ns:  p99ns(rawCosts),
		ColdCompP99Ns: p99ns(compCosts),
		Verifications: integ.Verifications - preVerifs,
	}
	if cb.RawColdBytes > 0 {
		cb.Ratio = float64(cb.CompColdBytes) / float64(cb.RawColdBytes)
	}

	// The floors. Miss any and the snapshot is a compression regression.
	if cs.CompressedLogs != logs {
		return cb, fmt.Errorf("compress leg: %d of %d logs compressed on migrate", cs.CompressedLogs, logs)
	}
	if cb.Ratio > 0.7 {
		return cb, fmt.Errorf("compress leg: cold tier holds %.2fx the raw bytes, ceiling is 0.7x (%dB vs %dB)",
			cb.Ratio, cb.CompColdBytes, cb.RawColdBytes)
	}
	for i := range rawData {
		if !bytes.Equal(rawData[i], compData[i]) {
			return cb, fmt.Errorf("compress leg: cold scan diverged at extent %d — compressed read is not transparent", i)
		}
	}
	if cb.Verifications == 0 {
		return cb, fmt.Errorf("compress leg: compressed cold scan verified no checksums")
	}
	if integ.Mismatches != 0 {
		return cb, fmt.Errorf("compress leg: %d checksum mismatches on clean compressed data", integ.Mismatches)
	}
	return cb, nil
}
