package main

import (
	"time"

	"streamlake/internal/colfile"
	"streamlake/internal/lakehouse"
)

// Rung: colfile. Entry points pinned: NewWriter(schema, 0) + Append(row)
// + Finish() to encode a file, (*Reader).ReadGroup(g, nil) to decode a
// row group.
//
// Encoding replays the table object's writes (the same rows, one file
// per partition). Decoding reads, of the files the replayed queries plan
// (tableStates), the row groups their filters do not skip.
func (c *climber) colfileRung() {
	batches, path, _, stride := c.writeBatches()
	if len(batches) > 0 {
		root := c.tr.begin("rung:colfile/"+path, -1)
		var sum time.Duration
		replayed := 0
		for b := 0; b < len(batches); b += stride {
			replayed++
			for _, part := range batches[b] {
				id := c.tr.begin("colfile.encode/"+path, root)
				w := colfile.NewWriter(c.w.meta.Schema, 0)
				var err error
				for _, row := range part {
					if err = w.Append(row); err != nil {
						break
					}
				}
				if err == nil {
					_, err = w.Finish()
				}
				c.tr.end(id)
				sum += c.tr.dur(id)
				if err != nil {
					c.errorf("colfile rung: encode: %v", err)
				}
			}
		}
		c.tr.end(root)
		c.add(path, "colfile", time.Duration(float64(sum)*float64(len(batches))/float64(replayed)))
	}
	c.colfileReads()
}

// colfileReads decodes what the replayed queries decode: of every file
// a query plans, the row groups whose statistics overlap its filters.
// Opening the file is untimed here; it is the table object's part.
func (c *climber) colfileReads() {
	root := c.tr.begin("rung:colfile/query", -1)
	var sum time.Duration
	for _, st := range c.tableStates() {
		eng := st.lake.Engine()
		tbl, err := eng.Table(c.w.table)
		if err != nil {
			c.errorf("colfile rung: %v", err)
			continue
		}
		var decode time.Duration
		for _, s := range st.scans {
			plan, _, err := eng.PlanScan(c.w.table, s.filters)
			if err != nil {
				c.errorf("colfile rung: plan: %v", err)
				continue
			}
			for _, f := range plan.Files {
				r, _, err := tbl.ReadFile(f)
				if err != nil {
					c.errorf("colfile rung: open: %v", err)
					continue
				}
				id := c.tr.begin("colfile.decode/query", root)
				for g := 0; g < r.NumRowGroups(); g++ {
					if !overlaps(r, g, s.filters) {
						continue
					}
					if _, err := r.ReadGroup(g, nil); err != nil {
						c.errorf("colfile rung: decode: %v", err)
					}
				}
				c.tr.end(id)
				decode += c.tr.dur(id)
			}
		}
		sum += time.Duration(float64(decode) * st.scale)
	}
	c.tr.end(root)
	if len(c.tableStates()) > 0 {
		c.add("query", "colfile", sum)
	}
}

// overlaps reports whether row group g's statistics admit a row that
// passes every filter, which is when a scan decodes the group.
func overlaps(r *colfile.Reader, g int, filters []lakehouse.RangeFilter) bool {
	for _, flt := range filters {
		col := r.Schema().FieldIndex(flt.Column)
		if col >= 0 && !r.GroupStats(g, col).Overlaps(flt.Lo, flt.Hi) {
			return false
		}
	}
	return true
}
