package lakehouse

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"streamlake/internal/colfile"
	"streamlake/internal/obs"
	"streamlake/internal/sim"
)

// A traced DELETE or UPDATE records its barrier flush, its plan, a read
// of each file it rewrites (with the source that served it), the
// rewritten files' writes and the commit as children of the caller's
// span, and costs what the untraced call costs: the children's
// durations are that cost's parts, so they sum to no more than it.
func TestDMLSpansAttributeTheRewrite(t *testing.T) {
	for _, kind := range []string{"delete", "update"} {
		var costs [2]time.Duration
		var root *obs.Span
		for i, traced := range []bool{false, true} {
			e := newEngine(t, true)
			mkTable(t, e, "t")
			for p, prov := range []string{"Beijing", "Shanghai"} {
				var rows []colfile.Row
				for j := 0; j < 20; j++ {
					rows = append(rows, row(fmt.Sprintf("u%d-%d", p, j), int64(j), prov, 1))
				}
				if _, err := e.Insert("t", rows); err != nil {
					t.Fatal(err)
				}
			}
			if traced {
				root = obs.NewTracer(sim.NewClock()).Start(kind)
			}
			filters := []RangeFilter{{Column: "start_time", Lo: iv(5), Hi: iv(9)}}
			var n int64
			var err error
			if kind == "delete" {
				n, costs[i], err = e.DeleteSpan("t", filters, root)
			} else {
				n, costs[i], err = e.UpdateSpan("t", filters, func(r colfile.Row) colfile.Row { return r }, root)
			}
			if err != nil || n != 10 {
				t.Fatalf("%s (traced %v): %d rows, %v", kind, traced, n, err)
			}
		}
		root.End(costs[1])
		if costs[0] != costs[1] {
			t.Fatalf("%s costs %v traced, %v untraced", kind, costs[1], costs[0])
		}
		var names []string
		var sum time.Duration
		for _, c := range root.JSON().Children {
			names = append(names, c.Name)
			sum += time.Duration(c.DurNs)
			if c.Name == "tableobj.read" && c.Attrs["src"] == "" {
				t.Errorf("%s: a read without its source: %+v", kind, c)
			}
		}
		want := []string{"lakehouse.flush", "lakehouse.plan", "tableobj.read", "tableobj.write", "tableobj.read", "tableobj.write", "tableobj.commit"}
		if !slices.Equal(names, want) || sum > costs[1] {
			t.Fatalf("%s: children %v summing to %v of %v; want %v", kind, names, sum, costs[1], want)
		}
	}
}
