package query

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"streamlake/internal/obs"
	"streamlake/internal/sim"
)

// model evaluates the loadRows table (n rows) naively. Row i is
// (url, 1000+i, province, i%10, i/10).
type modelRow struct {
	url, province      string
	startTime, bytesIn int64
	score              float64
}

func modelRows(n int) []modelRow {
	rows := make([]modelRow, n)
	for i := range rows {
		url := "http://fin.app"
		if i%4 == 0 {
			url = "http://other.app"
		}
		rows[i] = modelRow{url, []string{"Beijing", "Shanghai"}[i%2], int64(1000 + i), int64(i % 10), float64(i) / 10}
	}
	return rows
}

// Several SUM items used to share one accumulator filled by ranging over
// a map (compute side) or keep only the last SUM column (pushdown), so
// "select sum(a), sum(b)" printed one nondeterministic value twice. Each
// select item carries its own sum, on both paths, and with pushdown on
// every one of these statements is answered at the storage side.
func TestEverySumItemCarriesItsOwnSum(t *testing.T) {
	const n = 2000
	e, lh := newEngine(t)
	loadRows(t, lh, n)
	reg := obs.NewRegistry(sim.NewClock())
	e.SetObs(reg)
	hits := reg.Counter("query_pushdown_hits_total")
	type sums struct{ count, bytes, start int64 }
	want := map[string]*sums{}
	var total sums
	for _, r := range modelRows(n) {
		if r.startTime < 1100 {
			continue
		}
		g := want[r.province]
		if g == nil {
			g = &sums{}
			want[r.province] = g
		}
		for _, s := range []*sums{g, &total} {
			s.count++
			s.bytes += r.bytesIn
			s.start += r.startTime
		}
	}
	d := func(v int64) string { return fmt.Sprint(v) }
	bj, sh := want["Beijing"], want["Shanghai"]
	cases := []struct {
		sql  string
		rows [][]string
	}{
		{"select sum(bytes), sum(start_time) from logs where start_time >= 1100",
			[][]string{{d(total.bytes), d(total.start)}}},
		{"select sum(start_time), count(*), sum(bytes) from logs where start_time >= 1100",
			[][]string{{d(total.start), d(total.count), d(total.bytes)}}},
		{"select sum(bytes), sum(start_time) as s from logs where start_time >= 1100 group by province",
			[][]string{{"Beijing", d(bj.bytes), d(bj.start)}, {"Shanghai", d(sh.bytes), d(sh.start)}}},
		{"select sum(bytes), count(*), sum(bytes) from logs where start_time >= 1100 group by province",
			[][]string{{"Beijing", d(bj.bytes), d(bj.count), d(bj.bytes)}, {"Shanghai", d(sh.bytes), d(sh.count), d(sh.bytes)}}},
		{"select sum(start_time) from logs where start_time >= 1100",
			[][]string{{d(total.start)}}},
	}
	for _, tc := range cases {
		for _, pushdown := range []bool{true, false} {
			e.Pushdown = pushdown
			for rep := 0; rep < 4; rep++ { // the old bug was a map-order coin flip
				before := hits.Value()
				res, err := e.Query(tc.sql)
				if err != nil {
					t.Fatalf("%q pushdown=%v: %v", tc.sql, pushdown, err)
				}
				if !reflect.DeepEqual(res.Rows, tc.rows) {
					t.Fatalf("%q pushdown=%v:\n got %v\nwant %v", tc.sql, pushdown, res.Rows, tc.rows)
				}
				if pushed := hits.Value() > before; pushed != pushdown {
					t.Fatalf("%q pushdown=%v: took the storage-side path: %v", tc.sql, pushdown, pushed)
				}
			}
		}
	}
}

// The scan decodes select list ∪ WHERE ∪ GROUP BY ∪ SUM columns only;
// the answers must not depend on that, with and without pushdown.
func TestProjectedQueriesMatchModel(t *testing.T) {
	const n = 600
	e, lh := newEngine(t)
	loadRows(t, lh, n)
	rows := modelRows(n)
	count := func(keep func(modelRow) bool) string {
		c := 0
		for _, r := range rows {
			if keep(r) {
				c++
			}
		}
		return fmt.Sprint(c)
	}
	var starWant, urlWant [][]string
	for _, r := range rows {
		if r.startTime >= 1010 && r.startTime < 1013 {
			starWant = append(starWant, []string{r.url, fmt.Sprint(r.startTime), r.province, fmt.Sprint(r.bytesIn), trimFloat(r.score)})
		}
		if r.bytesIn == 7 && r.score < 3 {
			urlWant = append(urlWant, []string{r.url})
		}
	}
	cases := []struct {
		sql  string
		rows [][]string
	}{
		// count(*) with nothing to evaluate: footer-only.
		{"select count(*) from logs", [][]string{{fmt.Sprint(n)}}},
		// count(*) with a WHERE: only the filter column is decoded.
		{"select count(*) from logs where bytes = 3", [][]string{{count(func(r modelRow) bool { return r.bytesIn == 3 })}}},
		// A strict float bound: exact conjunct re-checked compute-side.
		{"select count(*) from logs where score < 12.5 and start_time > 1004",
			[][]string{{count(func(r modelRow) bool { return r.score < 12.5 && r.startTime > 1004 })}}},
		// select *: every column.
		{"select * from logs where start_time >= 1010 and start_time < 1013", starWant},
		// Filter columns absent from the select list.
		{"select url from logs where bytes = 7 and score < 3.0", urlWant},
		// count(col) counts rows; the column itself is not needed.
		{"select count(url) from logs where province = 'Beijing'", [][]string{{fmt.Sprint(n / 2)}}},
	}
	sorted := func(rows [][]string) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = strings.Join(r, "|")
		}
		return out
	}
	for _, tc := range cases {
		for _, pushdown := range []bool{true, false} {
			e.Pushdown = pushdown
			res, err := e.Query(tc.sql)
			if err != nil {
				t.Fatalf("%q pushdown=%v: %v", tc.sql, pushdown, err)
			}
			got, want := sorted(res.Rows), sorted(tc.rows)
			// Two partitions are scanned one after the other; order the
			// plain projections before comparing.
			sort.Strings(got)
			sort.Strings(want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%q pushdown=%v:\n got %v\nwant %v", tc.sql, pushdown, got, want)
			}
		}
	}
}
