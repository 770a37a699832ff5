package main

import (
	"time"

	"streamlake/internal/colfile"
)

// Rung: lakehouse. Entry points pinned: (*Engine).Insert(table, rows) on
// the load path, (*Engine).PlanScan(table, filters) and
// (*Engine).Scan(table, plan, filters, fn) on the query path.
//
// Inserts, updates and compactions are the workload's own calls, so
// their spans are the rung. Queries are replayed against the table as
// they met it (tableStates), as the plan and scan the SQL engine issues
// for them, timed apart, with a callback that only counts.
const (
	spanInsert  = "lakehouse.insert"
	spanUpdate  = "lakehouse.update"
	spanCompact = "lakehouse.compact"
)

// scanBlock is the period of the warehouse query mix (nine selective
// queries, one full scan); sampling keeps whole blocks so the mix holds.
const scanBlock = 10

// sampledScans returns every keep-th block of the round's queries and
// the factor their summed time scales up by.
func (c *climber) sampledScans() ([]scanCall, float64) {
	keep := 1
	if len(c.w.scans) > 4*scanBlock {
		keep = 3
	}
	var out []scanCall
	for i, s := range c.w.scans {
		if i/scanBlock%keep == 0 {
			out = append(out, s)
		}
	}
	return out, float64(len(c.w.scans)) / float64(len(out))
}

func (c *climber) lakehouseRung() {
	for _, name := range []string{spanInsert, spanUpdate, spanCompact} {
		c.fromSpans("load", "lakehouse", name)
	}
	if len(c.w.scans) == 0 {
		return
	}
	root := c.tr.begin("rung:lakehouse/query", -1)
	var planT, scanT time.Duration
	for _, st := range c.tableStates() {
		eng := st.lake.Engine()
		var planned, scanned time.Duration
		for _, s := range st.scans {
			id := c.tr.begin("lakehouse.plan/query", root)
			plan, _, err := eng.PlanScan(c.w.table, s.filters)
			c.tr.end(id)
			planned += c.tr.dur(id)
			if err != nil {
				c.errorf("lakehouse rung: plan: %v", err)
				continue
			}
			id = c.tr.begin("lakehouse.scan/query", root)
			_, _, err = eng.Scan(c.w.table, plan, s.filters, func(colfile.Row) bool { return true })
			c.tr.end(id)
			scanned += c.tr.dur(id)
			if err != nil {
				c.errorf("lakehouse rung: scan: %v", err)
			}
		}
		planT += time.Duration(float64(planned) * st.scale)
		scanT += time.Duration(float64(scanned) * st.scale)
	}
	c.tr.end(root)
	c.add(splitPath, "plan", planT)
	c.add(splitPath, "scan", scanT)
	c.add("query", "lakehouse", planT+scanT)
}
