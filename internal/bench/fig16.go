package bench

import (
	"fmt"
	"sort"
	"time"

	"streamlake/internal/colfile"
	"streamlake/internal/lakebrain/compact"
	"streamlake/internal/lakebrain/partition"
	"streamlake/internal/lakehouse"
	"streamlake/internal/plog"
	"streamlake/internal/pool"
	"streamlake/internal/query"
	"streamlake/internal/sim"
	"streamlake/internal/spn"
	"streamlake/internal/tableobj"
	"streamlake/internal/workload/tpch"
)

// ---------------------------------------------------------------------
// Figure 16(a): automatic compaction vs the static default strategy.
// ---------------------------------------------------------------------

// Fig16aPoint is one data volume's compaction comparison: query
// performance improvement over the no-compaction baseline.
type Fig16aPoint struct {
	DataMB             int
	NoneQueryCost      time.Duration
	DefaultQueryCost   time.Duration
	AutoQueryCost      time.Duration
	DefaultImprovement float64 // percent vs none
	AutoImprovement    float64
}

// DefaultFig16aVolumes are the paper's 24-90 GB divided by 3x Scale
// (MB): merge-on-read compaction rewrites data repeatedly, so this
// experiment runs at a deeper scale-down than the others (recorded in
// EXPERIMENTS.md).
var DefaultFig16aVolumes = []int{8, 16, 24, 30}

// fig16aBatch is rows per ingestion commit (the small-file generator).
const fig16aBatch = 400

// RunFig16a ingests TPC-H lineitem into the lakehouse under three
// compaction strategies and compares end-to-end query cost on the
// paper's randomly generated query workload.
func RunFig16a(volumesMB []int, seed uint64) ([]Fig16aPoint, error) {
	if volumesMB == nil {
		volumesMB = DefaultFig16aVolumes
	}
	// Train the RL policy on the compaction simulator (the paper trains
	// on a TPC-H test bed for 3.5 hours; the simulator exposes the same
	// state/reward interface).
	learner := compact.TrainAuto(compact.NewEnv(sim.NewClock(), 8, seed), 300, seed)

	var out []Fig16aPoint
	for _, mb := range volumesMB {
		rows := int(int64(mb) << 20 / 120) // ~120 B per lineitem row
		pt := Fig16aPoint{DataMB: mb}
		var err error
		pt.NoneQueryCost, err = fig16aRun(rows, seed, nil, nil)
		if err != nil {
			return nil, err
		}
		def := compact.NewDefault(30 * time.Second)
		pt.DefaultQueryCost, err = fig16aRun(rows, seed, def, nil)
		if err != nil {
			return nil, err
		}
		auto := &compact.Auto{Learner: learner}
		pt.AutoQueryCost, err = fig16aRun(rows, seed, nil, auto)
		if err != nil {
			return nil, err
		}
		pt.DefaultImprovement = improvement(pt.NoneQueryCost, pt.DefaultQueryCost)
		pt.AutoImprovement = improvement(pt.NoneQueryCost, pt.AutoQueryCost)
		out = append(out, pt)
	}
	return out, nil
}

func improvement(base, got time.Duration) float64 {
	return (base.Seconds() - got.Seconds()) / base.Seconds() * 100
}

// fig16aRun ingests rows with the given strategy (both nil = no
// compaction) and returns the query workload's total virtual cost.
func fig16aRun(rows int, seed uint64, def *compact.Default, auto *compact.Auto) (time.Duration, error) {
	clock := sim.NewClock()
	p := pool.New("f16a", clock, sim.NVMeSSD, 6, 16<<20)
	fs := tableobj.NewFileStore(plog.NewManager(p, 8<<20))
	cat := tableobj.NewCatalog(clock)
	lh := lakehouse.New(clock, fs, cat, lakehouse.Options{Acceleration: true, FlushEvery: 4})
	if _, err := lh.CreateTable(tableobj.TableMeta{
		Name: "lineitem", Path: "/lineitem", Schema: tpch.LineitemSchema,
		PartitionColumn: "l_shipmode",
	}); err != nil {
		return 0, err
	}
	tbl, err := lh.Table("lineitem")
	if err != nil {
		return 0, err
	}
	data := tpch.Lineitem(rows, seed)
	rng := sim.NewRNG(seed + 1)
	const blockSize = 256 << 10
	const targetFileSize = 1 << 20

	decide := func(now time.Duration, partName string, st compact.State) bool {
		switch {
		case def != nil:
			return def.ForPartition(partName).ShouldCompact(now, st)
		case auto != nil:
			return auto.ShouldCompact(now, st)
		default:
			return false
		}
	}
	off := 0
	tick := 0
	for off < len(data) {
		// Ingestion speed cycles between storms and calm windows, as in
		// the training environment: storm ticks land three micro-batch
		// commits, calm ticks one.
		batches := 1
		if tick%16 < 12 {
			batches = 3
		}
		filesThisTick := 0
		for b := 0; b < batches && off < len(data); b++ {
			end := off + fig16aBatch
			if end > len(data) {
				end = len(data)
			}
			if _, err := lh.Insert("lineitem", data[off:end]); err != nil {
				return 0, err
			}
			off = end
			filesThisTick++
		}
		clock.Advance(5 * time.Second)
		tick++
		if def == nil && auto == nil {
			continue
		}
		if _, err := lh.Flush("lineitem"); err != nil {
			return 0, err
		}
		cur, _, err := tbl.Current()
		if err != nil {
			return 0, err
		}
		byPart := map[string][]int64{}
		var all []int64
		for _, f := range cur.Files {
			byPart[f.Partition] = append(byPart[f.Partition], f.Bytes)
			all = append(all, f.Bytes)
		}
		globalUtil := compact.BlockUtilization(all, blockSize)
		// Feature normalization: ingest speed in training units (a storm
		// tick's arrivals map to the trained storm rate).
		ingestRate := float64(filesThisTick) / 3 * 20
		// Partitions in sorted order: each draws its conflict roll from
		// the seeded stream, so which partition gets which draw must not
		// follow map iteration order.
		parts := make([]string, 0, len(byPart))
		for partName := range byPart {
			parts = append(parts, partName)
		}
		sort.Strings(parts)
		for _, partName := range parts {
			sizes := byPart[partName]
			st := compact.State{
				TargetFileSize: targetFileSize,
				IngestRate:     ingestRate,
				GlobalUtil:     globalUtil,
				PartFiles:      len(sizes),
				PartUtil:       compact.BlockUtilization(sizes, blockSize),
				PartAccessFreq: 1,
			}
			if !decide(clock.Now(), partName, st) {
				continue
			}
			// A compaction racing active ingestion loses the commit race
			// with a probability scaling with the tick's ingest.
			activity := float64(filesThisTick) / 3
			if rng.Float64() < 0.85*activity {
				continue // conflict: compaction failed
			}
			if _, _, err := compact.CompactPartition(tbl, partName, targetFileSize); err != nil {
				return 0, err
			}
		}
		// Retention: compacted-away file versions expire immediately
		// (keeps the experiment's memory bounded; queries only ever use
		// the current snapshot).
		if _, err := tbl.ExpireSnapshots(clock.Now()); err != nil {
			return 0, err
		}
	}
	if _, err := lh.Flush("lineitem"); err != nil {
		return 0, err
	}
	// Query workload: the randomly generated TPC-H queries of [47].
	eng := query.New(lh)
	queries := tpch.RandomQueries(30, seed+2)
	var total time.Duration
	for _, q := range queries {
		res, err := eng.Query(tpch.QuerySQL("lineitem", q))
		if err != nil {
			return 0, err
		}
		total += res.Stats.PlanCost + res.Stats.ExecCost
		// Per-file task dispatch dominates merge-on-read over many
		// small files — the effect compaction removes.
		total += time.Duration(res.Stats.FilesRead) * taskOverhead
	}
	return total, nil
}

// Fig16aReport renders the compaction comparison.
func Fig16aReport(points []Fig16aPoint) *Report {
	r := &Report{
		Title:   "Figure 16(a): query improvement from compaction strategies",
		Columns: []string{"data(MB)", "none(s)", "default(s)", "auto(s)", "default-improve", "auto-improve"},
		Notes: []string{
			"improvement is query-cost reduction vs no compaction; paper: auto > default at every volume, gap grows with data",
			fmt.Sprintf("volumes are the paper's 24-90 GB divided by %d", 3*Scale),
		},
	}
	for _, p := range points {
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%d", p.DataMB),
			fmtDur(p.NoneQueryCost), fmtDur(p.DefaultQueryCost), fmtDur(p.AutoQueryCost),
			fmt.Sprintf("%.1f%%", p.DefaultImprovement),
			fmt.Sprintf("%.1f%%", p.AutoImprovement),
		})
	}
	return r
}

// Fig16aUtilPoint is one block-utilization measurement at an ingestion
// speed (the Section VII-E text claim: auto ~50% higher on average).
type Fig16aUtilPoint struct {
	IngestRate  float64
	DefaultUtil float64
	AutoUtil    float64
}

// RunFig16aUtil varies file ingestion speed on the compaction simulator
// and reports average block utilization for both strategies.
func RunFig16aUtil(rates []float64, seed uint64) []Fig16aUtilPoint {
	if rates == nil {
		rates = []float64{2, 5, 10, 20}
	}
	learner := compact.TrainAuto(compact.NewEnv(sim.NewClock(), 8, seed), 300, seed)
	var out []Fig16aUtilPoint
	for _, rate := range rates {
		run := func(useAuto bool) float64 {
			clock := sim.NewClock()
			env := compact.NewEnv(clock, 8, seed+7)
			def := compact.NewDefault(30 * time.Second)
			var sum float64
			const rounds = 100
			for r := 0; r < rounds; r++ {
				// Ingestion speed varies around the point's mean, as in
				// the paper's varying-speed experiment: bursts of high
				// arrival alternate with calm windows.
				if r%16 < 12 {
					env.IngestRate = rate * 1.5
				} else {
					env.IngestRate = rate * 0.1
				}
				env.Ingest(5 * time.Second)
				for i := 0; i < env.Partitions(); i++ {
					st := env.StateOf(i)
					var act bool
					if useAuto {
						act = (&compact.Auto{Learner: learner}).ShouldCompact(clock.Now(), st)
					} else {
						act = def.ForPartition(fmt.Sprintf("p%d", i)).ShouldCompact(clock.Now(), st)
					}
					if act {
						env.Compact(i)
					}
				}
				sum += env.GlobalUtil()
			}
			return sum / rounds
		}
		out = append(out, Fig16aUtilPoint{
			IngestRate:  rate,
			DefaultUtil: run(false),
			AutoUtil:    run(true),
		})
	}
	return out
}

// Fig16aUtilReport renders the utilization comparison.
func Fig16aUtilReport(points []Fig16aUtilPoint) *Report {
	r := &Report{
		Title:   "Figure 16(a'): block utilization vs ingestion speed",
		Columns: []string{"ingest(files/s)", "default util", "auto util", "auto/default"},
		Notes:   []string{"paper text: auto-compaction achieves ~50% higher block utilization on average"},
	}
	for _, p := range points {
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%.0f", p.IngestRate),
			fmt.Sprintf("%.3f", p.DefaultUtil),
			fmt.Sprintf("%.3f", p.AutoUtil),
			fmtRatio(p.AutoUtil / p.DefaultUtil),
		})
	}
	return r
}

// ---------------------------------------------------------------------
// Figure 16(b, c): predicate-aware partitioning.
// ---------------------------------------------------------------------

// Fig16bcPoint is one scale factor's partitioning comparison.
type Fig16bcPoint struct {
	SF         int
	TotalBytes int64
	// Bytes skipped per strategy (Figure 16-b).
	FullSkipped, DaySkipped, OursSkipped int64
	// Query runtime per strategy (Figure 16-c).
	FullTime, DayTime, OursTime time.Duration
}

// DefaultFig16bcSFs are the paper's scale factors.
var DefaultFig16bcSFs = []int{2, 5, 10, 100}

// RunFig16bc trains the predicate-aware partitioner on a 3% sample of
// SF-2 lineitem (as the paper does), then evaluates bytes skipped and
// query runtime across scale factors against the Full and Day
// baselines.
func RunFig16bc(sfs []int, seed uint64) ([]Fig16bcPoint, error) {
	if sfs == nil {
		sfs = DefaultFig16bcSFs
	}
	workload := tpch.RandomQueries(30, seed)

	// Train on a 3% random sample of SF-2.
	sf2 := tpch.Lineitem(2*tpch.RowsPerSF, seed+1)
	rng := sim.NewRNG(seed + 2)
	var sample []colfile.Row
	for _, r := range sf2 {
		if rng.Float64() < 0.03 {
			sample = append(sample, r)
		}
	}
	tree := partition.Build(tpch.LineitemSchema, sample, workload, int64(len(sf2)), partition.Config{
		MaxPartitions:    512,
		MinPartitionRows: 8,
		SPN:              spn.Config{Seed: seed + 3},
	})

	var out []Fig16bcPoint
	for _, sf := range sfs {
		rows := tpch.Lineitem(sf*tpch.RowsPerSF, seed+uint64(sf))
		day := partition.NewByValue(tpch.LineitemSchema, rows, "l_shipdate", 1)
		full := partition.Full{}
		pt := Fig16bcPoint{SF: sf}
		var err error
		pt.FullSkipped, pt.FullTime, pt.TotalBytes, err = evalRouter(full, rows, workload, false)
		if err != nil {
			return nil, err
		}
		pt.DaySkipped, pt.DayTime, _, err = evalRouter(day, rows, workload, false)
		if err != nil {
			return nil, err
		}
		pt.OursSkipped, pt.OursTime, _, err = evalRouter(tree, rows, workload, true)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// lineitemRowBytes is the logical row footprint used to express skipped
// data in comparable bytes across strategies (file-format overheads
// differ wildly between 1 file and 2500 files).
const lineitemRowBytes = 120

// evalRouter writes the rows into one columnar file per partition and
// replays the workload: a query reads only the partitions it touches
// (with row-group statistics pruning inside each file) and skips the
// rest. Skipped volume is measured in logical row bytes; runtime charges
// the physical file opens and reads. sortLayout orders rows within each
// partition by shipdate — the data-access-ordering part of LakeBrain's
// layout optimization, applied to the predicate-aware strategy.
func evalRouter(r partition.Router, rows []colfile.Row, workload []partition.Query, sortLayout bool) (skipped int64, runtime time.Duration, total int64, err error) {
	shipIdx := tpch.LineitemSchema.FieldIndex("l_shipdate")
	// Materialize partitions.
	parts := make([][]colfile.Row, r.NumPartitions())
	for _, row := range rows {
		p := r.Route(row)
		parts[p] = append(parts[p], row)
	}
	if sortLayout {
		for _, part := range parts {
			sortRowsBy(part, shipIdx)
		}
	}
	files := make([][]byte, len(parts))
	for p, part := range parts {
		if len(part) == 0 {
			continue
		}
		w := colfile.NewWriter(tpch.LineitemSchema, 256)
		for _, row := range part {
			if err := w.Append(row); err != nil {
				return 0, 0, 0, err
			}
		}
		files[p], err = w.Finish()
		if err != nil {
			return 0, 0, 0, err
		}
		total += int64(len(files[p]))
	}
	disk := sim.Spec(sim.NVMeSSD)
	for _, q := range workload {
		// Extract the query's shipdate window for row-group pruning.
		var lo, hi *colfile.Value
		for _, pr := range q.Preds {
			if pr.Column != "l_shipdate" {
				continue
			}
			v := pr.Value
			switch pr.Op {
			case partition.GE, partition.GT:
				lo = &v
			case partition.LE, partition.LT:
				hi = &v
			}
		}
		for p := range parts {
			if files[p] == nil {
				continue
			}
			if !r.Touches(q, p) {
				skipped += int64(len(parts[p])) * lineitemRowBytes
				continue
			}
			rd, err := colfile.Open(files[p])
			if err != nil {
				return 0, 0, 0, err
			}
			runtime += disk.ReadLatency + 100*time.Microsecond // file open + footer
			var readBytes, readRows int64
			for g := 0; g < rd.NumRowGroups(); g++ {
				if !rd.GroupStats(g, shipIdx).Overlaps(lo, hi) {
					skipped += int64(rd.GroupRows(g)) * lineitemRowBytes
					continue
				}
				readBytes += rd.GroupBytes(g)
				readRows += int64(rd.GroupRows(g))
			}
			runtime += time.Duration(float64(readBytes) / float64(disk.ReadBandwidth) * float64(time.Second))
			// Predicate evaluation on every row that reaches the engine.
			runtime += time.Duration(readRows) * 100 * time.Nanosecond
		}
	}
	return skipped, runtime, total, nil
}

// sortRowsBy orders rows ascending by the given int64 column (insertion
// into a copy is avoided: simple in-place sort).
func sortRowsBy(rows []colfile.Row, col int) {
	if len(rows) < 2 {
		return
	}
	quicksortRows(rows, col)
}

func quicksortRows(rows []colfile.Row, col int) {
	if len(rows) < 16 {
		for i := 1; i < len(rows); i++ {
			for j := i; j > 0 && rows[j][col].Int < rows[j-1][col].Int; j-- {
				rows[j], rows[j-1] = rows[j-1], rows[j]
			}
		}
		return
	}
	pivot := rows[len(rows)/2][col].Int
	left, right := 0, len(rows)-1
	for left <= right {
		for rows[left][col].Int < pivot {
			left++
		}
		for rows[right][col].Int > pivot {
			right--
		}
		if left <= right {
			rows[left], rows[right] = rows[right], rows[left]
			left++
			right--
		}
	}
	quicksortRows(rows[:right+1], col)
	quicksortRows(rows[left:], col)
}

// Fig16bcReport renders the partitioning comparison.
func Fig16bcReport(points []Fig16bcPoint) *Report {
	r := &Report{
		Title:   "Figure 16(b, c): predicate-aware partitioning vs Full and Day",
		Columns: []string{"SF", "skip-full(MB)", "skip-day(MB)", "skip-ours(MB)", "t-full(s)", "t-day(s)", "t-ours(s)"},
		Notes: []string{
			"paper: Ours outperforms Day, particularly in finer data skipping and query runtime",
			fmt.Sprintf("lineitem rows per SF are the official count divided by %d", Scale),
		},
	}
	for _, p := range points {
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%d", p.SF),
			fmtMB(p.FullSkipped), fmtMB(p.DaySkipped), fmtMB(p.OursSkipped),
			fmtDur(p.FullTime), fmtDur(p.DayTime), fmtDur(p.OursTime),
		})
	}
	return r
}
