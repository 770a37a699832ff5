package main

// Rung: query. Entry point pinned: (*query.Engine).Query(sql), reached
// as Lake.Query.
//
// Where the workload queries the lake directly its spans are the rung;
// under the gateway (rest) the same statements are replayed against the
// round's own lake, which still holds the table.
const spanQuery = "query.query"

func (c *climber) queryRung() {
	if len(c.w.scans) == 0 {
		return
	}
	if len(c.w.tenants) == 0 {
		c.fromSpans("query", "query", spanQuery)
		return
	}
	c.rung("query", "query", len(c.w.scans), len(c.w.scans), func(i int) {
		if _, err := c.live.Query(c.w.scans[i].sql); err != nil {
			c.errorf("query rung: %v", err)
		}
	})
}
