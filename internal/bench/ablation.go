package bench

import (
	"fmt"
	"math"
	"time"

	"streamlake/internal/bus"
	"streamlake/internal/colfile"
	"streamlake/internal/ec"
	"streamlake/internal/lakebrain/partition"
	"streamlake/internal/lakehouse"
	"streamlake/internal/plog"
	"streamlake/internal/pool"
	"streamlake/internal/query"
	"streamlake/internal/sim"
	"streamlake/internal/spn"
	"streamlake/internal/tableobj"
	"streamlake/internal/workload/dpi"
	"streamlake/internal/workload/tpch"
)

// Ablation benches beyond the paper's figures, for the design choices
// DESIGN.md calls out.

// AblationBusResult measures I/O aggregation on a small-commit workload.
type AblationBusResult struct {
	Sends          int
	WithAggregate  time.Duration
	NoAggregate    time.Duration
	SavingsPercent float64
}

// RunAblationBus sends a metadata-like stream of small I/Os through the
// data bus with aggregation on and off.
func RunAblationBus(sends int) AblationBusResult {
	if sends <= 0 {
		sends = 10_000
	}
	agg := bus.New(bus.Config{Path: bus.RDMA, Aggregation: true})
	raw := bus.New(bus.Config{Path: bus.RDMA})
	var withAgg, without time.Duration
	for i := 0; i < sends; i++ {
		n := int64(200 + i%600) // commit-record-sized messages
		withAgg += agg.Send(n, bus.Normal)
		without += raw.Send(n, bus.Normal)
	}
	return AblationBusResult{
		Sends:          sends,
		WithAggregate:  withAgg,
		NoAggregate:    without,
		SavingsPercent: (without - withAgg).Seconds() / without.Seconds() * 100,
	}
}

// AblationECPoint sweeps erasure-coding parameters against replication.
type AblationECPoint struct {
	K, M           int
	Overhead       float64
	FaultTolerance int
	EncodeCostMs   float64 // wall-clock encode cost of one 4 MiB stripe, best of three
}

// RunAblationEC sweeps (k, m) configurations.
func RunAblationEC() ([]AblationECPoint, error) {
	var out []AblationECPoint
	for _, cfg := range []struct{ k, m int }{{2, 1}, {4, 2}, {6, 3}, {10, 1}, {10, 2}, {10, 4}} {
		c, err := ec.New(cfg.k, cfg.m)
		if err != nil {
			return nil, err
		}
		// Measure the real encode cost of one 4 MiB stripe.
		shardSize := 4 << 20 / cfg.k
		data := make([][]byte, cfg.k)
		for i := range data {
			data[i] = make([]byte, shardSize)
			for j := range data[i] {
				data[i][j] = byte(i * j)
			}
		}
		// Best of three: the first encode of a configuration also pays
		// for faulting in its parity pages and whatever else is cold.
		best := math.Inf(1)
		for try := 0; try < 3; try++ {
			start := nowMs()
			if _, err := c.Encode(data); err != nil {
				return nil, err
			}
			best = math.Min(best, nowMs()-start)
		}
		out = append(out, AblationECPoint{
			K: cfg.k, M: cfg.m,
			Overhead:       c.Overhead(),
			FaultTolerance: cfg.m,
			EncodeCostMs:   best,
		})
	}
	return out, nil
}

// AblationPushdownResult compares the DAU query with pushdown on/off.
type AblationPushdownResult struct {
	WithPushdown    time.Duration
	WithoutPushdown time.Duration
	BytesShippedOn  int64
	BytesShippedOff int64
}

// RunAblationPushdown measures computation pushdown on the Figure 13
// query.
func RunAblationPushdown(seed uint64) (AblationPushdownResult, error) {
	var res AblationPushdownResult
	clock := sim.NewClock()
	p := pool.New("abl", clock, sim.NVMeSSD, 6, 8<<20)
	fs := tableobj.NewFileStore(plog.NewManager(p, 8<<20))
	cat := tableobj.NewCatalog(clock)
	lh := lakehouse.New(clock, fs, cat, lakehouse.Options{Acceleration: true})
	if _, err := lh.CreateTable(tableobj.TableMeta{
		Name: "logs", Path: "/logs", Schema: dpi.LabeledSchema, PartitionColumn: "province",
	}); err != nil {
		return res, err
	}
	gen := dpi.NewGenerator(seed)
	var rows []colfile.Row
	for i := 0; i < 30_000; i++ {
		if norm, ok := dpi.Normalize(gen.RawRow()); ok {
			rows = append(rows, dpi.Label(norm))
		}
	}
	if _, err := lh.Insert("logs", rows); err != nil {
		return res, err
	}
	if _, err := lh.Flush("logs"); err != nil {
		return res, err
	}
	eng := query.New(lh)
	sql := dpi.DAUQuery("logs", 0)

	eng.Pushdown = true
	on, err := eng.Query(sql)
	if err != nil {
		return res, err
	}
	eng.Pushdown = false
	off, err := eng.Query(sql)
	if err != nil {
		return res, err
	}
	res.WithPushdown = on.Stats.PlanCost + on.Stats.ExecCost
	res.WithoutPushdown = off.Stats.PlanCost + off.Stats.ExecCost
	res.BytesShippedOn = on.Stats.ComputeBytes
	res.BytesShippedOff = off.Stats.ComputeBytes
	return res, nil
}

// AblationSPNResult compares SPN cardinality estimates against the
// uniform-independence assumption on the partitioner's workload.
type AblationSPNResult struct {
	Queries      int
	SPNMeanErr   float64 // mean relative error
	UniformErr   float64
	SPNWinsCount int
}

// RunAblationSPN evaluates both estimators against ground truth on
// lineitem.
func RunAblationSPN(seed uint64) AblationSPNResult {
	rows := tpch.Lineitem(20_000, seed)
	enc := partition.NewEncoder(tpch.LineitemSchema, rows)
	data := make([][]float64, len(rows))
	for i, r := range rows {
		data[i] = enc.EncodeRow(r)
	}
	est := spn.Learn(data, spn.Config{Seed: seed})

	shipIdx := tpch.LineitemSchema.FieldIndex("l_shipdate")
	rcptIdx := tpch.LineitemSchema.FieldIndex("l_receiptdate")
	res := AblationSPNResult{}
	rng := sim.NewRNG(seed + 1)
	const queries = 60
	res.Queries = queries
	for i := 0; i < queries; i++ {
		// Correlated predicate pair: shipdate window plus a receiptdate
		// window near it (receipt = ship + 1..30 days in lineitem).
		// Independence assumptions badly misestimate this conjunction.
		shipLo := float64(tpch.ShipdateMin + rng.Intn(2000))
		shipHi := shipLo + float64(30+rng.Intn(300))
		rcptLo := shipLo + float64(rng.Intn(20))
		rcptHi := rcptLo + float64(15+rng.Intn(60))
		// Truth.
		truth := 0.0
		for _, d := range data {
			if d[shipIdx] >= shipLo && d[shipIdx] <= shipHi && d[rcptIdx] >= rcptLo && d[rcptIdx] <= rcptHi {
				truth++
			}
		}
		spnEst := est.EstimateCount(map[int]spn.Range{
			shipIdx: {Lo: shipLo, Hi: shipHi},
			rcptIdx: {Lo: rcptLo, Hi: rcptHi},
		}, int64(len(data)))
		// Uniform independence over the column domains.
		domain := float64(tpch.ShipdateMax - tpch.ShipdateMin + 31)
		uni := float64(len(data)) *
			((shipHi - shipLo) / domain) *
			((rcptHi - rcptLo) / domain)
		relErr := func(est float64) float64 {
			denom := truth
			if denom < 1 {
				denom = 1
			}
			e := (est - truth) / denom
			if e < 0 {
				return -e
			}
			return e
		}
		se, ue := relErr(spnEst), relErr(uni)
		res.SPNMeanErr += se / queries
		res.UniformErr += ue / queries
		if se <= ue {
			res.SPNWinsCount++
		}
	}
	return res
}

// AblationReport renders all ablations as one report.
func AblationReport(busRes AblationBusResult, ecRes []AblationECPoint, pd AblationPushdownResult, spnRes AblationSPNResult) *Report {
	r := &Report{
		Title:   "Ablations: bus aggregation, EC parameters, pushdown, SPN estimator",
		Columns: []string{"ablation", "result"},
	}
	r.Rows = append(r.Rows,
		[]string{"bus aggregation", fmt.Sprintf("%d small sends: %v aggregated vs %v raw (%.0f%% saved)",
			busRes.Sends, busRes.WithAggregate, busRes.NoAggregate, busRes.SavingsPercent)},
	)
	for _, e := range ecRes {
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("EC(%d,%d)", e.K, e.M),
			fmt.Sprintf("overhead %.2fx, FT=%d, encode %.1f ms / 4 MiB", e.Overhead, e.FaultTolerance, e.EncodeCostMs),
		})
	}
	r.Rows = append(r.Rows,
		[]string{"pushdown", fmt.Sprintf("DAU query %v on vs %v off; shipped %d vs %d bytes",
			pd.WithPushdown, pd.WithoutPushdown, pd.BytesShippedOn, pd.BytesShippedOff)},
		[]string{"SPN vs uniform", fmt.Sprintf("mean rel-err %.2f vs %.2f; SPN at least as good on %d/%d queries",
			spnRes.SPNMeanErr, spnRes.UniformErr, spnRes.SPNWinsCount, spnRes.Queries)},
	)
	return r
}

// nowMs returns a wall-clock milliseconds reading for CPU-cost
// measurements (the only place real time is used in the harness).
func nowMs() float64 { return float64(time.Now().UnixNano()) / 1e6 }
