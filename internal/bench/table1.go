package bench

import (
	"fmt"
	"time"

	"streamlake/internal/baseline/hdfs"
	"streamlake/internal/baseline/kafkafs"
	"streamlake/internal/colfile"
	"streamlake/internal/convert"
	"streamlake/internal/lakebrain/compact"
	"streamlake/internal/lakehouse"
	"streamlake/internal/plog"
	"streamlake/internal/pool"
	"streamlake/internal/rowcodec"
	"streamlake/internal/sim"
	"streamlake/internal/streamobj"
	"streamlake/internal/streamsvc"
	"streamlake/internal/tableobj"
	"streamlake/internal/workload/dpi"
)

// Table1Row is one column of the paper's Table 1, at one input size.
type Table1Row struct {
	Packets int

	// Storage (physical bytes).
	StreamLakeStorage int64
	HKStorage         int64 // HDFS + Kafka combined

	// Stream processing rate (messages/second).
	StreamLakeRate float64
	KafkaRate      float64

	// Batch processing time (virtual).
	StreamLakeBatch time.Duration
	HDFSBatch       time.Duration
}

// StorageRatio is HK/S, as the paper's "Ratio" row reports it.
func (r Table1Row) StorageRatio() float64 {
	return float64(r.HKStorage) / float64(r.StreamLakeStorage)
}

// StreamRatio is K/S.
func (r Table1Row) StreamRatio() float64 { return r.KafkaRate / r.StreamLakeRate }

// BatchRatio is H/S: above 1 means StreamLake is faster.
func (r Table1Row) BatchRatio() float64 {
	return r.HDFSBatch.Seconds() / r.StreamLakeBatch.Seconds()
}

// DefaultTable1Scales are the paper's packet counts divided by Scale
// (10M..1B -> 10k..1M).
var DefaultTable1Scales = []int{10_000, 50_000, 100_000, 500_000, 1_000_000}

// Batch-engine cost constants (the Spark-style compute side both
// pipelines share). taskOverhead is per-file/per-block task dispatch;
// jobStartup is the per-job driver launch; cpuPerRow is the per-row
// transform/evaluation compute of one pipeline pass; slMetaFixed and
// slPerCommit are StreamLake's extra metadata-management costs (catalog
// transactions, snapshot maintenance) — the overhead behind the paper's
// "20% slower at 10M records" observation.
const (
	taskOverhead = 5 * time.Millisecond
	jobStartup   = 200 * time.Millisecond
	cpuPerRow    = 2 * time.Microsecond
	slMetaFixed  = 150 * time.Millisecond
	slPerCommit  = 500 * time.Microsecond
)

// table1Chunk is the streaming micro-batch: packets per ingestion
// commit.
const table1Chunk = 2_000

// RunTable1 regenerates Table 1 at the given packet counts (nil uses
// DefaultTable1Scales).
func RunTable1(scales []int, seed uint64) []Table1Row {
	if scales == nil {
		scales = DefaultTable1Scales
	}
	rows := make([]Table1Row, 0, len(scales))
	for _, n := range scales {
		row := Table1Row{Packets: n}
		row.runHDFSKafka(n, seed)
		row.runStreamLake(n, seed)
		rows = append(rows, row)
	}
	return rows
}

// runHDFSKafka runs the paper's existing-solution pipeline: Kafka as
// stream storage, HDFS as batch storage, with a new full copy written
// after the collection, normalization and labeling jobs (the typical
// ETL practice Section VII-B describes).
func (row *Table1Row) runHDFSKafka(n int, seed uint64) {
	clock := sim.NewClock()
	broker := kafkafs.New(clock, kafkafs.Config{Brokers: 3, Replication: 3})
	dfs := hdfs.New(clock, hdfs.Config{DataNodes: 3, Replication: 3, DiscardData: true})
	broker.CreateTopic("packets", 3)

	gen := dpi.NewGenerator(seed)
	var rawBytes, normBytes, labeledBytes int64
	chunkRaw := make([]colfile.Row, 0, table1Chunk)
	chunkIdx := 0
	flushChunk := func() {
		if len(chunkRaw) == 0 {
			return
		}
		blob, _ := rowcodec.Encode(dpi.RawSchema, chunkRaw)
		rawBytes += int64(len(blob))
		dfs.Write(fmt.Sprintf("/landing/raw/part-%06d", chunkIdx), blob)
		// Normalization drops the payload and shields subscriber ids;
		// labeling adds the app label. Each stage lands a fresh copy.
		var norm, labeled []colfile.Row
		for _, r := range chunkRaw {
			if nr, ok := dpi.Normalize(r); ok {
				norm = append(norm, nr)
				labeled = append(labeled, dpi.Label(nr))
			}
		}
		nblob, _ := rowcodec.Encode(dpi.NormSchema, norm)
		normBytes += int64(len(nblob))
		dfs.Write(fmt.Sprintf("/etl/norm/part-%06d", chunkIdx), nblob)
		lblob, _ := rowcodec.Encode(dpi.LabeledSchema, labeled)
		labeledBytes += int64(len(lblob))
		dfs.Write(fmt.Sprintf("/etl/labeled/part-%06d", chunkIdx), lblob)
		// The query job materializes its query-ready table copy too.
		dfs.Write(fmt.Sprintf("/warehouse/final/part-%06d", chunkIdx), lblob)
		chunkRaw = chunkRaw[:0]
		chunkIdx++
	}
	for i := 0; i < n; i++ {
		r := gen.RawRow()
		blob, _ := rowcodec.Encode(dpi.RawSchema, []colfile.Row{r})
		broker.Produce("packets", i%3, []byte(fmt.Sprintf("u%d", r[3].Int)), blob)
		chunkRaw = append(chunkRaw, r)
		if len(chunkRaw) >= table1Chunk {
			flushChunk()
		}
	}
	flushChunk()

	row.HKStorage = broker.StorageBytes() + dfs.StorageBytes()
	row.KafkaRate = sustainedRate(n, rawBytes)

	// Batch time: each job reads its input copy and writes its output
	// copy through the 3-replica pipeline, plus per-block task dispatch.
	perW := pipelineWriteCost()
	perR := pipelineReadCost()
	blocks := func(b int64) int64 {
		return (b + (128 << 20) - 1) / (128 << 20)
	}
	var batch time.Duration
	batch += 4 * jobStartup                                                      // four pipeline jobs
	batch += time.Duration(float64(rawBytes) * perW)                             // collect: kafka -> raw copy
	batch += time.Duration(float64(rawBytes)*perR + float64(normBytes)*perW)     // normalize
	batch += time.Duration(float64(normBytes)*perR + float64(labeledBytes)*perW) // label
	batch += time.Duration(float64(labeledBytes) * (perR + perW))                // query job: scan + final copy
	batch += time.Duration(float64(labeledBytes) * perR)                         // the DAU query itself: full row scan
	// Per-row transform compute: normalize, label, and query evaluation
	// each pass over every row.
	batch += 3 * time.Duration(n) * cpuPerRow
	batch += time.Duration(blocks(rawBytes)*2+blocks(normBytes)*2+blocks(labeledBytes)*3) * taskOverhead
	row.HDFSBatch = batch
}

// runStreamLake runs the paper's replacement pipeline: one stream copy
// serving real-time consumers, stream-to-table conversion applying the
// normalize+label schema, LakeBrain compaction, and the pushdown DAU
// query — writing updates instead of full copies.
func (row *Table1Row) runStreamLake(n int, seed uint64) {
	clock := sim.NewClock()
	p := pool.New("sl", clock, sim.NVMeSSD, 6, 16<<20)
	logs := plog.NewManager(p, 8<<20)
	store := streamobj.NewStore(clock, logs)
	svc := streamsvc.New(clock, store, 3)
	fs := tableobj.NewFileStore(logs)
	cat := tableobj.NewCatalog(clock)
	lh := lakehouse.New(clock, fs, cat, lakehouse.Options{Acceleration: true})
	conv := convert.New(clock, svc, lh)

	transform := func(key, value []byte) (colfile.Row, bool) {
		_, rows, err := rowcodec.Decode(value)
		if err != nil || len(rows) != 1 {
			return nil, false
		}
		nr, ok := dpi.Normalize(rows[0])
		if !ok {
			return nil, false
		}
		return dpi.Label(nr), true
	}
	svc.CreateTopic(streamsvc.TopicConfig{
		Name: "packets", StreamNum: 3,
		Redundancy: plog.EC(4, 2),
		Convert: streamsvc.ConvertConfig{
			Enabled:         true,
			TableName:       "dpi_logs",
			TablePath:       "/lake/dpi_logs",
			TableSchema:     dpi.LabeledSchema,
			PartitionColumn: "province",
			SplitOffset:     table1Chunk,
			SplitTime:       time.Hour,
			Transform:       transform,
		},
	})
	gen := dpi.NewGenerator(seed)
	prod := svc.Producer("collector")
	var convCost time.Duration
	for i := 0; i < n; i++ {
		r := gen.RawRow()
		blob, _ := rowcodec.Encode(dpi.RawSchema, []colfile.Row{r})
		if _, _, err := prod.Send("packets", []byte(fmt.Sprintf("u%d", r[3].Int)), blob); err != nil {
			panic(err)
		}
		if (i+1)%table1Chunk == 0 {
			_, c, err := conv.RunOnce()
			if err != nil {
				panic(err)
			}
			convCost += c
		}
	}
	if _, c, err := conv.ForceTopic("packets"); err != nil {
		panic(err)
	} else {
		convCost += c
	}

	// Re-run support uses time travel over the one copy; downstream
	// jobs write only their updates. The normalization re-mask job
	// touches ~10% of the time window.
	tbl, err := lh.Table("dpi_logs")
	if err != nil {
		panic(err)
	}
	lo := colfile.IntValue(dpi.BaseTime)
	hi := colfile.IntValue(dpi.BaseTime + 17280) // 10% of the 2-day window
	_, updateCost, err := lh.Update("dpi_logs",
		[]lakehouse.RangeFilter{{Column: "start_time", Lo: &lo, Hi: &hi}},
		func(r colfile.Row) colfile.Row { return r })
	if err != nil {
		panic(err)
	}

	// LakeBrain compaction merges the streaming micro-batch files
	// before the query job.
	var compactCost time.Duration
	for _, prov := range dpi.Provinces {
		_, c, err := compact.CompactPartition(tbl, "province="+prov, 32<<20)
		if err != nil {
			panic(err)
		}
		compactCost += c
	}
	cur, _, _ := tbl.Current()

	// Snapshot retention: keep the last job's input reachable for
	// re-runs via time travel, expire older versions (production
	// retention policy; without it every update and compaction version
	// accumulates forever).
	clock.Advance(time.Second)
	if _, err := tbl.ExpireSnapshots(clock.Now() - time.Millisecond); err != nil {
		panic(err)
	}

	// Query job: the DAU query with pushdown and metadata acceleration.
	urlV := colfile.StringValue(dpi.FinAppURL)
	plan, planCost, err := lh.PlanScan("dpi_logs", nil)
	if err != nil {
		panic(err)
	}
	_, queryCost, err := lh.AggregatePushdown("dpi_logs",
		[]lakehouse.RangeFilter{{Column: "url", Lo: &urlV, Hi: &urlV}},
		"province", "")
	if err != nil {
		panic(err)
	}

	row.StreamLakeStorage = logs.PhysicalBytes()
	row.StreamLakeRate = sustainedRate(n, int64(n)*dpi.PacketSize)

	batch := convCost + updateCost + compactCost + planCost + queryCost
	batch += 4 * jobStartup // the same four pipeline jobs
	// Transform compute: the conversion fuses normalize+label into one
	// pass (two passes' work); the pushed-down query evaluates only the
	// rows its file/row-group pruning leaves.
	batch += 2 * time.Duration(n) * cpuPerRow
	batch += time.Duration(float64(n)*0.6) * cpuPerRow // query pass after pruning
	// Metadata management: catalog transactions and snapshot
	// maintenance per streaming commit, plus per-file task dispatch.
	commits := int64(n/table1Chunk) + 1
	fileTasks := int64(len(cur.Files)) + int64(plan.SkippedFiles)
	batch += slMetaFixed
	batch += time.Duration(commits) * slPerCommit
	batch += time.Duration(fileTasks*3) * taskOverhead
	row.StreamLakeBatch = batch
}

// sustainedRate models the bandwidth-limited sustained message rate with
// a fixed pipeline warm-up, applied identically to both systems:
// throughput grows with volume as the warm-up amortizes and plateaus at
// the persistence bandwidth.
func sustainedRate(msgs int, bytes int64) float64 {
	const warmup = 0.05 // seconds
	bw := sim.Spec(sim.NVMeSSD).WriteBandwidth
	busy := float64(bytes) / float64(bw)
	return float64(msgs) / (warmup + busy)
}

// pipelineWriteCost is the per-byte virtual cost (ns) of an HDFS
// pipeline write: one network hop plus one disk write per replica,
// serial along the 3-node chain.
func pipelineWriteCost() float64 {
	net := sim.Spec(sim.Net10GbE)
	disk := sim.Spec(sim.NVMeSSD)
	per := 1/float64(net.WriteBandwidth) + 1/float64(disk.WriteBandwidth)
	return per * 3 * float64(time.Second)
}

// pipelineReadCost is the per-byte cost of reading one replica over the
// network.
func pipelineReadCost() float64 {
	net := sim.Spec(sim.Net10GbE)
	disk := sim.Spec(sim.NVMeSSD)
	return (1/float64(net.ReadBandwidth) + 1/float64(disk.ReadBandwidth)) * float64(time.Second)
}

// Table1Report renders rows in the paper's layout.
func Table1Report(rows []Table1Row) *Report {
	r := &Report{
		Title: "Table 1: StreamLake vs HDFS and Kafka",
		Columns: []string{"#-packets", "S-storage(GB)", "HK-storage(GB)", "ratio(HK/S)",
			"S-msgs/s", "K-msgs/s", "ratio(K/S)", "S-batch(s)", "H-batch(s)", "ratio(H/S)"},
		Notes: []string{
			fmt.Sprintf("packet counts are the paper's divided by %d; packets average %d B", Scale, dpi.PacketSize),
			"paper ratios: storage 4.16-4.40, stream 0.99-1.02, batch 0.82-1.55",
		},
	}
	for _, row := range rows {
		r.Rows = append(r.Rows, []string{
			fmtInt(int64(row.Packets)),
			fmtGB(row.StreamLakeStorage), fmtGB(row.HKStorage), fmtRatio(row.StorageRatio()),
			fmtRate(row.StreamLakeRate), fmtRate(row.KafkaRate), fmtRatio(row.StreamRatio()),
			fmtDur(row.StreamLakeBatch), fmtDur(row.HDFSBatch), fmtRatio(row.BatchRatio()),
		})
	}
	return r
}
