package main

import (
	"strconv"
	"time"

	"streamlake"
	"streamlake/internal/lakehouse"
	"streamlake/internal/rowcodec"
	"streamlake/internal/workload/dpi"
)

// pipeline: the paper's China Mobile flow (Fig 12/13, Table 1) on a
// single-node lake. DPI packets arrive in four bursts on an EC(4,2)
// topic whose conversion decodes, normalizes and labels them into a
// table partitioned by province and then reclaims the stream copy; after
// each burst the conversion runs and the two DAU queries are asked; at
// the end a tenth of the rows is re-masked and every province compacted.
// Conversion, row decoding, erasure coding, table commits and compaction
// do the work, and one-copy storage shows in the stored-bytes ratio.
type pipeline struct {
	pool []message
}

const (
	pipelineMessages = 100_000
	pipelineBursts   = 4
	dpiTable         = "dpi"
	// remaskSeconds of the two generated days are re-masked: a tenth.
	remaskSeconds = 2 * 86400 / 10
	remaskBits    = 0x5555
)

// normalizeAndLabel is the topic's conversion transform: decode the raw
// packet, validate and privacy-shield it, attach the application label.
func normalizeAndLabel(key, value []byte) (streamlake.Row, bool) {
	_, rows, err := rowcodec.Decode(value)
	if err != nil || len(rows) != 1 {
		return nil, false
	}
	norm, ok := dpi.Normalize(rows[0])
	if !ok {
		return nil, false
	}
	return dpi.Label(norm), true
}

var dpiMeta = streamlake.TableMeta{
	Name: dpiTable, Path: "/lake/dpi", Schema: dpi.LabeledSchema, PartitionColumn: "province",
}

// topic is the pipeline's topic: conversion fires once a burst's worth
// of messages is pending.
func (w *pipeline) topic(e *env) streamlake.TopicConfig {
	return streamlake.TopicConfig{
		Name: benchTopic, StreamNum: 4, Redundancy: streamlake.EC(4, 2),
		Convert: streamlake.ConvertConfig{
			Enabled: true, TableName: dpiMeta.Name, TablePath: dpiMeta.Path,
			TableSchema: dpiMeta.Schema, PartitionColumn: dpiMeta.PartitionColumn,
			SplitOffset: int64(e.n(pipelineMessages / pipelineBursts)),
			DeleteMsg:   true, Transform: normalizeAndLabel,
		},
	}
}

func (w *pipeline) open(e *env) (*streamlake.Lake, error) {
	lake, err := streamlake.Open(streamlake.Config{Seed: e.seed})
	if err != nil {
		return nil, err
	}
	return lake, lake.CreateTopic(w.topic(e))
}

// dauScan is the DAU query as the lakehouse layer sees it.
func dauScan(day int) scanCall {
	url := streamlake.StringValue(dpi.FinAppURL)
	lo := streamlake.IntValue(dpi.BaseTime + int64(day)*86400)
	hi := streamlake.IntValue(lo.Int + 86400 - 1)
	return scanCall{
		sql: dpi.DAUQuery(dpiTable, day),
		filters: []lakehouse.RangeFilter{
			{Column: "url", Lo: &url, Hi: &url},
			{Column: "start_time", Lo: &lo, Hi: &hi},
		},
		group: "province", pushdown: true,
	}
}

func (w *pipeline) setup(e *env) error {
	pool, err := dpiPool(e.seed)
	if err != nil {
		return err
	}
	w.pool = pool
	_, err = w.open(e)
	return err
}

// dauKey identifies one cell of the DAU answer.
type dauKey struct {
	day      int
	province string
}

func (w *pipeline) round(e *env) *roundResult {
	r := newRound()
	r.positional = true
	lake, err := w.open(e)
	if err != nil {
		r.fail("open: %v", err)
		return r
	}
	r.lake = lake
	n := e.n(pipelineMessages)
	burst := n / pipelineBursts
	n = burst * pipelineBursts
	led := newLedger(w.pool, 4, n)
	acks := make([]time.Duration, 0, n)
	p := lake.Producer("bench")

	// The naive model the lake's answers are checked against.
	dau := map[dauKey]int64{}
	var accepted, inRemask int64

	var user, converted, malformed, reclaimed int64
	var produceWall, convertWall, convertVirt time.Duration
	var fresh, dauVirt []time.Duration
	var scans []scanCall
	for b := 0; b < pipelineBursts; b++ {
		produceWall += r.phase(func() {
			user += produce(e, r, p, w.pool, led, b*burst, burst, &acks, nil)
		})
		for i := b * burst; i < (b+1)*burst; i++ {
			m := &w.pool[i%poolSize]
			if !m.accepted {
				continue
			}
			accepted++
			if m.fin {
				dau[dauKey{m.day, m.province}]++
			}
			if m.second < remaskSeconds {
				inRemask++
			}
		}

		var convVirt time.Duration
		mark := markReads(lake)
		convertWall += r.phase(func() {
			id := e.tr.begin(spanConvert, e.root)
			results, cost, err := lake.RunConversion()
			e.tr.end(id)
			r.attempted++
			if err != nil {
				r.fail("conversion after burst %d: %v", b, err)
				return
			}
			convVirt = cost
			r.virt += cost
			for _, res := range results {
				converted += res.Messages
				malformed += res.Malformed
				reclaimed += res.FreedLog
			}
		})
		convertVirt += convVirt
		r.counts.noteSliceReads(lake, mark)

		for day := 0; day < 2; day++ {
			var res *streamlake.Result
			var cost time.Duration
			scan := dauScan(day)
			scans = append(scans, scan)
			r.phase(func() {
				id := e.tr.begin(spanQuery, e.root)
				t0 := time.Now()
				res, cost, err = lake.QueryCost(scan.sql)
				r.queries = append(r.queries, ms(time.Since(t0)))
				e.tr.end(id)
				r.virt += cost
			})
			r.attempted++
			if err != nil {
				r.fail("DAU query day %d after burst %d: %v", day, b, err)
				continue
			}
			dauVirt = append(dauVirt, cost)
			if day == 0 {
				// Freshness: the burst's last ack to its rows answering a
				// query, in virtual time.
				fresh = append(fresh, convVirt+cost)
			}
			w.checkDAU(r, res, dau, day, b)
		}
	}
	r.absorb(led)
	if converted != accepted {
		r.fail("converted %d rows, want the %d accepted packets", converted, accepted)
	}

	// The converter and the SQL engine each hold their own handle on the
	// table, and each handle numbers the files it writes from the
	// snapshot id it saw when it was opened. The engine's handle was
	// opened by the first DAU query, so without this soft-drop/restore
	// (which makes the engine reopen it at the current snapshot) the
	// update below would reuse file ids of later conversions and
	// overwrite their data files. See README.md, "Known defects".
	if err := lake.DropTableSoft(dpiTable); err != nil {
		r.fail("soft drop: %v", err)
	} else if err := lake.RestoreTable(dpiTable); err != nil {
		r.fail("restore: %v", err)
	}

	r.phase(func() {
		lo := streamlake.IntValue(dpi.BaseTime)
		hi := streamlake.IntValue(dpi.BaseTime + remaskSeconds - 1)
		id := e.tr.begin(spanUpdate, e.root)
		updated, err := lake.Update(dpiTable, "start_time", &lo, &hi, func(row streamlake.Row) streamlake.Row {
			out := append(streamlake.Row(nil), row...)
			out[3] = streamlake.IntValue(row[3].Int ^ remaskBits)
			return out
		})
		e.tr.end(id)
		r.attempted++
		if err != nil {
			r.fail("update: %v", err)
		} else if updated != inRemask {
			r.fail("update touched %d rows, want %d", updated, inRemask)
		}
		for _, prov := range dpi.Provinces {
			id := e.tr.begin(spanCompact, e.root)
			_, err := lake.CompactTable(dpiTable, "province="+prov, 32<<20)
			e.tr.end(id)
			r.attempted++
			if err != nil {
				r.fail("compact %s: %v", prov, err)
			}
		}
	})
	r.attempted++
	if res, err := lake.Query("select count(*) from " + dpiTable); err != nil {
		r.fail("final count: %v", err)
	} else if len(res.Rows) != 1 || res.Rows[0][0] != strconv.FormatInt(accepted, 10) {
		r.fail("table holds %v rows after update and compaction, want %d", res.Rows, accepted)
	}

	r.wall["produce_kmsgs_per_s"] = float64(n) / produceWall.Seconds() / 1e3
	r.wall["convert_krows_per_s"] = float64(converted) / convertWall.Seconds() / 1e3
	r.exact["produce_ack_virt_mean_us"] = durMeanUS(acks)
	r.exact["query_virt_mean_ms"] = durMeanUS(dauVirt) / 1e3
	r.exact["freshness_virt_ms"] = durMeanUS(fresh) / 1e3
	r.exact["stored_bytes_per_user_byte"] = float64(lake.Stats().PhysicalBytes) / float64(user)
	r.ops = n
	r.readCounts(lake)
	r.counts.userBytes = user
	// A conversion writes one file per province; the DAU queries saw
	// one, two, ... bursts' worth of them.
	r.counts.queryFiles = float64(len(dpi.Provinces)) * float64(pipelineBursts+1) / 2
	r.counts.ecTopic = true
	r.counts.convertCalls = pipelineBursts
	r.counts.convertRows = converted
	r.counts.convertMalformed = malformed
	r.counts.convertVirt = convertVirt
	r.counts.reclaimed = reclaimed
	r.work = work{cfg: streamlake.Config{Seed: e.seed}, topic: w.topic(e), pool: w.pool, sends: n,
		table: dpiTable, meta: dpiMeta, scans: scans, converts: pipelineBursts}
	return r
}

// checkDAU compares a DAU answer with the model: one row per province
// that has a finance-app packet on that day, with its count.
func (w *pipeline) checkDAU(r *roundResult, res *streamlake.Result, dau map[dauKey]int64, day, burst int) {
	want := 0
	for k := range dau {
		if k.day == day {
			want++
		}
	}
	if len(res.Rows) != want {
		r.fail("DAU day %d after burst %d: %d provinces, want %d", day, burst, len(res.Rows), want)
		return
	}
	for _, row := range res.Rows {
		if len(row) != 2 || row[1] != strconv.FormatInt(dau[dauKey{day, row[0]}], 10) {
			r.fail("DAU day %d after burst %d: got %v, want %d", day, burst, row, dau[dauKey{day, row[0]}])
			return
		}
		r.counts.rowsMatched += dau[dauKey{day, row[0]}]
	}
}
