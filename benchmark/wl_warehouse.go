package main

import (
	"sort"
	"strconv"
	"time"

	"streamlake"
	"streamlake/internal/colfile"
	"streamlake/internal/lakebrain/partition"
	"streamlake/internal/lakehouse"
	"streamlake/internal/workload/tpch"
)

// warehouse: TPC-H lineitem rows, sorted by l_shipdate and partitioned
// by l_shipmode, are inserted in batches of 2,000 into a lake whose read
// cache (2 MB) holds about 40 % of the table; then selective
// shipdate-window counts (plan- and prune-dominated) are interleaved
// nine to one with full-table GROUP BY aggregates (scan- and
// decode-dominated). The stream path does nothing here, and this is the
// only workload with a cache, smaller than its working set.
type warehouse struct {
	table     lineitem
	userBytes []int64 // payload bytes of the first i batches
	sel       []partition.Query
}

const (
	lineitemTableName = "lineitem"
	warehouseBatches  = 100
	batchRows         = 2000
	warehouseCacheMB  = 2
	// Queries at nominalSeconds; -seconds scales both.
	warehouseSel  = 180
	warehouseFull = 20
	fullSQL       = "select l_shipmode, count(*), sum(l_quantity) from " + lineitemTableName + " group by l_shipmode"
)

var lineitemMeta = streamlake.TableMeta{
	Name: lineitemTableName, Path: "/lake/lineitem",
	Schema: tpch.LineitemSchema, PartitionColumn: "l_shipmode",
}

func (w *warehouse) open(e *env) (*streamlake.Lake, error) {
	lake, err := streamlake.Open(streamlake.Config{Seed: e.seed, CacheMB: warehouseCacheMB})
	if err != nil {
		return nil, err
	}
	return lake, lake.CreateTable(lineitemMeta)
}

// selScan is a generated selective query as the lakehouse layer sees
// it: closed ranges per column, counted at the storage side.
func selScan(q partition.Query) scanCall {
	s := scanCall{sql: tpch.QuerySQL(lineitemTableName, q), pushdown: true}
	byColumn := map[string]int{}
	for _, p := range q.Preds {
		i, ok := byColumn[p.Column]
		if !ok {
			i = len(s.filters)
			byColumn[p.Column] = i
			s.filters = append(s.filters, lakehouse.RangeFilter{Column: p.Column})
		}
		v := p.Value
		switch p.Op {
		case partition.GE:
			s.filters[i].Lo = &v
		case partition.LE:
			s.filters[i].Hi = &v
		case partition.LT: // integer column: < v is <= v-1
			v.Int--
			s.filters[i].Hi = &v
		}
	}
	return s
}

func (w *warehouse) setup(e *env) error {
	batches := e.n(warehouseBatches)
	w.table = lineitemTable(e.seed, batches*batchRows, batchRows)
	w.userBytes = make([]int64, batches+1)
	for i, batch := range w.table.batches {
		w.userBytes[i+1] = w.userBytes[i]
		for _, part := range batch {
			for _, row := range part {
				for _, v := range row {
					if v.Type == colfile.String {
						w.userBytes[i+1] += int64(len(v.Str))
					} else {
						w.userBytes[i+1] += 8
					}
				}
			}
		}
	}
	w.sel = tpch.RandomQueries(e.n(int(warehouseSel*e.k+0.5)), e.seed+1)
	_, err := w.open(e)
	return err
}

// countMatching evaluates a generated query naively over rows sorted by
// l_shipdate: binary-search the shipdate window, test the rest per row.
func countMatching(rows []streamlake.Row, q partition.Query) int64 {
	lo, hi := int64(-1<<62), int64(1<<62)
	for _, p := range q.Preds {
		if p.Column != "l_shipdate" {
			continue
		}
		switch p.Op {
		case partition.GE:
			lo = p.Value.Int
		case partition.LT:
			hi = p.Value.Int
		}
	}
	from := sort.Search(len(rows), func(i int) bool { return rows[i][colShipdate].Int >= lo })
	var n int64
	for _, row := range rows[from:] {
		if row[colShipdate].Int >= hi {
			break
		}
		ok := true
		for _, p := range q.Preds {
			switch p.Column {
			case "l_quantity":
				ok = ok && row[colQuantity].Int <= p.Value.Int
			case "l_discount":
				ok = ok && row[colDiscount].Float <= p.Value.Float
			}
		}
		if ok {
			n++
		}
	}
	return n
}

func (w *warehouse) round(e *env) *roundResult {
	r := newRound()
	lake, err := w.open(e)
	if err != nil {
		r.fail("open: %v", err)
		return r
	}
	r.lake = lake
	batches, sel, full := len(w.table.batches), len(w.sel), e.n(int(warehouseFull*e.k+0.5))
	if e.warm {
		batches, sel, full = min(batches, 8), min(sel, 18), 2
	}
	loaded := w.table.rows[:batches*batchRows]

	// Load: one Insert per (batch, partition), then the MetaFresher.
	var batchWall []float64
	r.phase(func() {
		for _, batch := range w.table.batches[:batches] {
			var virt time.Duration
			id := e.tr.begin(spanInsert, e.root)
			t0 := time.Now()
			for _, part := range batch {
				cost, err := lake.Engine().Insert(lineitemTableName, part)
				if err != nil {
					r.fail("insert: %v", err)
				}
				virt += cost
			}
			r.virt += virt
			batchWall = append(batchWall, time.Since(t0).Seconds())
			e.tr.end(id)
			r.attempted++
		}
		if err := lake.FlushTable(lineitemTableName); err != nil {
			r.fail("flush table: %v", err)
		}
	})
	r.wall["insert_krows_per_s"] = batchRows / median(batchWall) / 1e3

	// The model answer of the full-table aggregate.
	type agg struct{ count, sum int64 }
	wantFull := map[string]agg{}
	for _, row := range loaded {
		a := wantFull[row[colShipmode].Str]
		a.count++
		a.sum += row[colQuantity].Int
		wantFull[row[colShipmode].Str] = a
	}

	var virt []time.Duration
	var fullWall []float64
	query := func(sql string) (*streamlake.Result, time.Duration) {
		var res *streamlake.Result
		var wall time.Duration
		r.phase(func() {
			id := e.tr.begin(spanQuery, e.root)
			t0 := time.Now()
			var cost time.Duration
			res, cost, err = lake.QueryCost(sql)
			wall = time.Since(t0)
			e.tr.end(id)
			virt = append(virt, cost)
			r.virt += cost
		})
		r.attempted++
		if err != nil {
			r.fail("%s: %v", sql, err)
			return nil, wall
		}
		return res, wall
	}
	ranFull := 0
	var scans []scanCall
	runFull := func() {
		ranFull++
		res, wall := query(fullSQL)
		scans = append(scans, scanCall{sql: fullSQL})
		fullWall = append(fullWall, ms(wall))
		if res == nil {
			return
		}
		if len(res.Rows) != len(wantFull) {
			r.fail("full aggregate: %d groups, want %d", len(res.Rows), len(wantFull))
			return
		}
		for _, row := range res.Rows {
			a := wantFull[row[0]]
			if len(row) != 3 || row[1] != strconv.FormatInt(a.count, 10) || row[2] != strconv.FormatInt(a.sum, 10) {
				r.fail("full aggregate: got %v, want count %d sum %d", row, a.count, a.sum)
			}
		}
		r.counts.rowsMatched += int64(len(loaded))
	}
	for i, q := range w.sel[:sel] {
		scan := selScan(q)
		scans = append(scans, scan)
		res, wall := query(scan.sql)
		r.queries = append(r.queries, ms(wall))
		if res != nil {
			want := countMatching(loaded, q)
			if len(res.Rows) != 1 || res.Rows[0][0] != strconv.FormatInt(want, 10) {
				r.fail("%s: got %v, want %d", scan.sql, res.Rows, want)
			}
			r.counts.rowsMatched += want
		}
		// One full-table aggregate after every ninth selective query.
		if i%9 == 8 && ranFull < full {
			runFull()
		}
	}
	for ranFull < full {
		runFull()
	}
	if ranFull > 0 {
		r.wall["query_full_wall_p50_ms"] = median(fullWall)
	}
	r.exact["query_virt_mean_ms"] = durMeanUS(virt) / 1e3
	r.exact["stored_bytes_per_user_byte"] = float64(lake.Stats().PhysicalBytes) / float64(w.userBytes[batches])
	r.ops = sel + ranFull
	r.readCounts(lake)
	r.counts.userBytes = w.userBytes[batches]
	r.work = work{cfg: streamlake.Config{Seed: e.seed, CacheMB: warehouseCacheMB}, table: lineitemTableName,
		meta: lineitemMeta, inserts: w.table.batches[:batches], scans: scans}
	return r
}
