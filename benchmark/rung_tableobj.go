package main

import (
	"time"

	"streamlake"
	"streamlake/internal/tableobj"
)

// Rung: tableobj. Entry points pinned: (*Table).Begin,
// (*Txn).WriteRows(rows), (*Txn).Commit and (*Table).ReadFile(file).
//
// Writes: the rows the layer above hands over — the workload's insert
// batches, or what the conversion makes of each burst — are written one
// file per partition through a transaction on a fresh lake's table and
// committed the way the layer above commits them (the metadata cache
// folds a load into one commit; a conversion commits per run). Reads:
// the files each replayed query plans are opened on the table as the
// query met it (tableStates).
func (c *climber) tableobjRung() {
	c.tableobjWrites()
	c.tableobjReads()
}

// writeBatches is what the table object is asked to write in a round,
// the path that asks, whether every batch commits on its own, and the
// stride to replay with: insert batches all cost alike, so every fourth
// is enough; conversion runs are few and each is replayed.
func (c *climber) writeBatches() (batches [][][]streamlake.Row, path string, commitEach bool, stride int) {
	if c.w.converts == 0 {
		stride = 1
		if len(c.w.inserts) >= 16 {
			stride = 4
		}
		return c.w.inserts, "load", false, stride
	}
	// Made afresh for every rung that replays them: kept, the rows would
	// sit in the heap under every other rung, and the collector would mark
	// them in each of its cycles, which the round's own heap never asks.
	stride = 1
	per := c.w.sends / c.w.converts
	for b := 0; b < c.w.converts; b++ {
		byProvince := map[string][]streamlake.Row{}
		var order []string
		for i := b * per; i < (b+1)*per; i++ {
			m := &c.w.pool[i%len(c.w.pool)]
			row, ok := normalizeAndLabel(m.key, m.value)
			if !ok {
				continue
			}
			if _, seen := byProvince[m.province]; !seen {
				order = append(order, m.province)
			}
			byProvince[m.province] = append(byProvince[m.province], row)
		}
		var batch [][]streamlake.Row
		for _, p := range order {
			batch = append(batch, byProvince[p])
		}
		batches = append(batches, batch)
	}
	return batches, "convert", true, stride
}

func (c *climber) tableobjWrites() {
	batches, path, commitEach, stride := c.writeBatches()
	if len(batches) == 0 {
		return
	}
	lake := c.open()
	if err := lake.CreateTable(c.w.meta); err != nil {
		c.errorf("tableobj rung: %v", err)
		return
	}
	tbl, err := lake.Engine().Table(c.w.table)
	if err != nil {
		c.errorf("tableobj rung: %v", err)
		return
	}
	root := c.tr.begin("rung:tableobj/"+path, -1)
	var sum time.Duration
	var files []tableobj.DataFile
	replayed := 0
	for b := 0; b < len(batches); b += stride {
		replayed++
		id := c.tr.begin("tableobj.write/"+path, root)
		x, err := tbl.Begin()
		if err == nil {
			for _, part := range batches[b] {
				f, werr := x.WriteRows(part)
				if werr != nil {
					err = werr
					break
				}
				files = append(files, f)
			}
		}
		if err == nil && commitEach {
			_, err = x.Commit()
		}
		c.tr.end(id)
		sum += c.tr.dur(id)
		if err != nil {
			c.errorf("tableobj rung: write: %v", err)
		}
	}
	sum = time.Duration(float64(sum) * float64(len(batches)) / float64(replayed))
	if !commitEach {
		id := c.tr.begin("tableobj.commit/"+path, root)
		x, err := tbl.Begin()
		if err == nil {
			for _, f := range files {
				x.AddFile(f)
			}
			_, err = x.Commit()
		}
		c.tr.end(id)
		sum += c.tr.dur(id)
		if err != nil {
			c.errorf("tableobj rung: commit: %v", err)
		}
	}
	c.tr.end(root)
	c.add(path, "tableobj", sum)
}

func (c *climber) tableobjReads() {
	if len(c.w.scans) == 0 {
		return
	}
	root := c.tr.begin("rung:tableobj/query", -1)
	var sum time.Duration
	for _, st := range c.tableStates() {
		eng := st.lake.Engine()
		tbl, err := eng.Table(c.w.table)
		if err != nil {
			c.errorf("tableobj rung: %v", err)
			continue
		}
		var read time.Duration
		for _, s := range st.scans {
			plan, _, err := eng.PlanScan(c.w.table, s.filters)
			if err != nil {
				c.errorf("tableobj rung: plan: %v", err)
				continue
			}
			for _, f := range plan.Files {
				id := c.tr.begin("tableobj.read/query", root)
				_, _, err := tbl.ReadFile(f)
				c.tr.end(id)
				read += c.tr.dur(id)
				if err != nil {
					c.errorf("tableobj rung: read: %v", err)
				}
			}
		}
		sum += time.Duration(float64(read) * st.scale)
	}
	c.tr.end(root)
	c.add("query", "tableobj", sum)
}
