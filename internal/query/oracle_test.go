package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"streamlake/internal/colfile"
	"streamlake/internal/lakehouse"
	"streamlake/internal/obs"
	"streamlake/internal/plog"
	"streamlake/internal/pool"
	"streamlake/internal/sim"
	"streamlake/internal/tableobj"
)

var (
	evSchema = colfile.MustSchema("url:string", "ts:int64", "province:string", "bytes:int64", "score:float64")
	evRow    = func(r *rand.Rand) colfile.Row {
		return colfile.Row{colfile.StringValue(fmt.Sprintf("http://u/%d", r.Intn(6))), colfile.IntValue(int64(r.Intn(500))),
			colfile.StringValue([]string{"bj", "sh", "gz", "cd"}[r.Intn(4)]), colfile.IntValue(int64(r.Intn(40))),
			colfile.FloatValue(float64(r.Intn(80)) / 4)}
	}
)

// oracleTables are three tables; queries rotate among them, so one
// lake's scans switch schema from query to query. ev and acct, of
// different schemas, hold many one-group files. big holds ev's rows in
// one file of two row groups, sorted on ts, and every query of it bounds
// ts, so its scans skip row groups inside the file.
var oracleTables = []struct {
	meta tableobj.TableMeta
	row  func(*rand.Rand) colfile.Row
}{
	{tableobj.TableMeta{Name: "ev", Path: "/lake/ev", PartitionColumn: "province", Schema: evSchema}, evRow},
	{tableobj.TableMeta{Name: "acct", Path: "/lake/acct", PartitionColumn: "bucket",
		Schema: colfile.MustSchema("id:int64", "bucket:int64", "name:string", "paid:bool", "amount:float64")},
		func(r *rand.Rand) colfile.Row {
			return colfile.Row{colfile.IntValue(int64(r.Intn(1000))), colfile.IntValue(int64(r.Intn(3))),
				colfile.StringValue(string(rune('a' + r.Intn(5)))), colfile.BoolValue(r.Intn(2) == 0),
				colfile.FloatValue(float64(r.Intn(40)) / 2)}
		}},
	{tableobj.TableMeta{Name: "big", Path: "/lake/big", PartitionColumn: "province", Schema: evSchema}, evRow},
}

// oracleLake is a lakehouse with both tables.
func oracleLake(t *testing.T) *Engine {
	t.Helper()
	clock := sim.NewClock()
	fs := tableobj.NewFileStore(plog.NewManager(pool.New("q", clock, sim.NVMeSSD, 8, 64<<20), 8<<20))
	lh := lakehouse.New(clock, fs, tableobj.NewCatalog(clock), lakehouse.Options{Acceleration: true, FlushEvery: 8})
	for _, tb := range oracleTables {
		if _, err := lh.CreateTable(tb.meta); err != nil {
			t.Fatal(err)
		}
	}
	return New(lh)
}

// randomQuery renders a SELECT over table tb: select *, a column list
// or aggregates (count, none to three sums, maybe grouped with the key
// anywhere in the list, maybe aliased, and maybe a strict bound on a
// float or a string), under up to three random conjuncts on its
// comparable columns, after the conjuncts in must.
func randomQuery(r *rand.Rand, schema colfile.Schema, table string, must ...string) string {
	pick := func(types ...colfile.Type) colfile.Field {
		for {
			if f := schema.Fields[r.Intn(len(schema.Fields))]; len(types) == 0 || slices.Contains(types, f.Type) {
				return f
			}
		}
	}
	var sel, conds []string
	group := ""
	switch r.Intn(3) {
	case 0:
		sel = []string{"*"}
	case 1:
		for n := 1 + r.Intn(3); len(sel) < n; {
			sel = append(sel, pick().Name)
		}
	default:
		if r.Intn(3) > 0 {
			sel = append(sel, "count(*)")
		}
		for n := r.Intn(4); n > 0; n-- {
			sel = append(sel, "sum("+pick(colfile.Int64, colfile.Float64).Name+")")
		}
		if r.Intn(2) == 0 {
			key := pick(colfile.Int64, colfile.String, colfile.Bool).Name
			group = " group by " + key
			if r.Intn(2) == 0 {
				if r.Intn(2) == 0 {
					key += " as k"
				}
				sel = slices.Insert(sel, r.Intn(len(sel)+1), key)
			}
		}
		if len(sel) == 0 {
			sel = []string{"count(*)"}
		}
		if r.Intn(2) == 0 {
			conds = append(conds, strictBound(r, pick(colfile.Float64, colfile.String)))
		}
	}
	conds = append(conds, must...)
	for n := r.Intn(4); n > 0; n-- {
		f := pick()
		op := []string{"=", "<", "<=", ">", ">="}[r.Intn(5)]
		switch f.Type {
		case colfile.Int64:
			conds = append(conds, fmt.Sprintf("%s %s %d", f.Name, op, r.Intn(520)))
		case colfile.Float64:
			conds = append(conds, fmt.Sprintf("%s %s %g", f.Name, op, float64(r.Intn(84))/4))
		case colfile.String:
			conds = append(conds, fmt.Sprintf("%s %s '%s'", f.Name, op, []string{"a", "c", "bj", "gz", "http://u/3", "z"}[r.Intn(6)]))
		}
	}
	where := ""
	if len(conds) > 0 {
		where = " where " + strings.Join(conds, " and ")
	}
	return "select " + strings.Join(sel, ", ") + " from " + table + where + group
}

// strictBound is a < or > conjunct on a float or a string column, which
// no closed range states exactly.
func strictBound(r *rand.Rand, f colfile.Field) string {
	op := []string{"<", ">"}[r.Intn(2)]
	if f.Type == colfile.Float64 {
		return fmt.Sprintf("%s %s %g", f.Name, op, float64(r.Intn(84))/4)
	}
	return fmt.Sprintf("%s %s '%s'", f.Name, op, []string{"a", "c", "bj", "gz", "http://u/3", "z"}[r.Intn(6)])
}

// aggregates reports whether the statement is an aggregate: it groups,
// or some item is a COUNT or a SUM.
func aggregates(stmt *Stmt) bool {
	return stmt.GroupBy != "" || slices.ContainsFunc(stmt.Select, func(it SelectItem) bool { return it.Agg != AggNone })
}

// evaluate is the reference: the statement over the raw rows, with the
// engine's result shapes. A projection names its items (every column
// for *), its rows compared unordered. An aggregate has a row per group
// in key order, its columns the select list's (alias, else count,
// sum(col) or the key) with the key first when the list does not name
// it; without GROUP BY it has one row even over no rows, its count 0
// and its sums NULL.
func evaluate(t *testing.T, stmt *Stmt, schema colfile.Schema, rows []colfile.Row) (cols []string, out [][]string) {
	conds, err := bindConds(schema, stmt.Where)
	if err != nil {
		t.Fatal(err)
	}
	items := stmt.Select
	if stmt.GroupBy != "" && !slices.ContainsFunc(items, func(it SelectItem) bool { return it.Column == stmt.GroupBy && it.Agg == AggNone }) {
		items = append([]SelectItem{{Column: stmt.GroupBy}}, items...)
	}
	for _, it := range items {
		switch {
		case it.Alias != "":
			cols = append(cols, it.Alias)
		case it.Column == "*":
			for _, f := range schema.Fields {
				cols = append(cols, f.Name)
			}
		case it.Agg == AggCount:
			cols = append(cols, "count")
		case it.Agg == AggSum:
			cols = append(cols, "sum("+it.Column+")")
		default:
			cols = append(cols, it.Column)
		}
	}
	type agg struct {
		count int64
		sums  []float64
	}
	groups := map[string]*agg{}
	if stmt.GroupBy == "" {
		groups[""] = &agg{sums: make([]float64, len(items))}
	}
	for _, row := range rows {
		if !rowMatchesConds(row, conds) {
			continue
		}
		if !aggregates(stmt) {
			var vals []string
			for _, it := range stmt.Select {
				for c, f := range schema.Fields {
					if it.Column == "*" || it.Column == f.Name {
						vals = append(vals, row[c].String())
					}
				}
			}
			out = append(out, vals)
			continue
		}
		key := ""
		if stmt.GroupBy != "" {
			key = row[schema.FieldIndex(stmt.GroupBy)].String()
		}
		if groups[key] == nil {
			groups[key] = &agg{sums: make([]float64, len(items))}
		}
		g := groups[key]
		g.count++
		for i, it := range items {
			if it.Agg == AggSum {
				v := row[schema.FieldIndex(it.Column)]
				g.sums[i] += float64(v.Int) + v.Float
			}
		}
	}
	if !aggregates(stmt) {
		return cols, out
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		var vals []string
		for i, it := range items {
			switch {
			case it.Agg == AggNone:
				vals = append(vals, k)
			case it.Agg == AggCount:
				vals = append(vals, fmt.Sprint(groups[k].count))
			case groups[k].count == 0:
				vals = append(vals, "NULL")
			default:
				vals = append(vals, trimFloat(groups[k].sums[i]))
			}
		}
		out = append(out, vals)
	}
	return cols, out
}

// sortedRows orders a result's rows, for the queries whose row order is
// the scan's.
func sortedRows(rows [][]string) [][]string {
	keys, idx := make([]string, len(rows)), make([]int, len(rows))
	for i, row := range rows {
		keys[i], idx[i] = strings.Join(row, "\x00"), i
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	out := make([][]string, len(rows))
	for i, j := range idx {
		out[i] = rows[j]
	}
	return out
}

// TestQueriesMatchReferenceEvaluator is the differential query oracle:
// random rows, inserted in shuffled partition order into two tables of
// different schemas, and random SELECTs over them. Every statement runs
// with pushdown on and off, and a column list
// also as select * (projection off); every answer, columns and rows,
// must equal evaluate's over the raw rows, and with pushdown on every
// aggregate must have run at the storage side. The rows' sums are exact
// in float64 (quarters and halves), so any summation order gives the
// same result. The test fails if no scan of big skips a row group
// inside its file.
func TestQueriesMatchReferenceEvaluator(t *testing.T) {
	batches, queries := 24, 450
	if testing.Short() {
		batches, queries = 8, 90
	}
	rng := rand.New(rand.NewSource(37))
	q := oracleLake(t)
	reg := obs.NewRegistry(sim.NewClock())
	q.SetObs(reg)
	hits := reg.Counter("query_pushdown_hits_total")
	raw := make([][]colfile.Row, len(oracleTables))
	for b := 0; b < batches; b++ {
		for ti, tb := range oracleTables[:2] {
			var batch []colfile.Row
			for n := 20 + rng.Intn(30); n > 0; n-- {
				batch = append(batch, tb.row(rng))
			}
			raw[ti] = append(raw[ti], batch...)
			if _, err := q.lh.Insert(tb.meta.Name, append([]colfile.Row(nil), batch...)); err != nil {
				t.Fatal(err)
			}
		}
	}
	big := make([]colfile.Row, colfile.DefaultRowGroupSize+256) // two groups, one province
	for i := range big {
		big[i] = evRow(rng)
		big[i][2] = colfile.StringValue("bj")
	}
	sort.SliceStable(big, func(i, j int) bool { return big[i][1].Int < big[j][1].Int })
	raw[2] = big
	if _, err := q.lh.Insert("big", append([]colfile.Row(nil), big...)); err != nil {
		t.Fatal(err)
	}
	tracer, skipped := obs.NewTracer(sim.NewClock()), 0
	for i := 0; i < queries; i++ {
		ti := i % len(oracleTables)
		tb := oracleTables[ti]
		var must []string
		if tb.meta.Name == "big" {
			must = []string{fmt.Sprintf("ts %s %d", []string{"<", ">="}[rng.Intn(2)], rng.Intn(520))}
		}
		sql := randomQuery(rng, tb.meta.Schema, tb.meta.Name, must...)
		stmt, err := Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		cols, want := evaluate(t, stmt, tb.meta.Schema, raw[ti])
		aggregated := aggregates(stmt)
		if !aggregated {
			want = sortedRows(want)
		}
		for _, pushdown := range []bool{true, false} {
			q.Pushdown = pushdown
			sp, before := tracer.Start("oracle"), hits.Value()
			res, err := q.ExecuteSpan(stmt, sp)
			if err != nil {
				t.Fatalf("%s (pushdown %v): %v", sql, pushdown, err)
			}
			if pushed := hits.Value() > before; pushed != (aggregated && pushdown) {
				t.Fatalf("%s (pushdown %v): aggregated at the storage side: %v", sql, pushdown, pushed)
			}
			if !reflect.DeepEqual(res.Columns, cols) {
				t.Fatalf("%s (pushdown %v): columns %q, want %q", sql, pushdown, res.Columns, cols)
			}
			for _, m := range skippedGroups.FindAllStringSubmatch(sp.Tree(), -1) {
				if n, _ := strconv.Atoi(m[1]); tb.meta.Name == "big" {
					skipped += n
				}
			}
			got := res.Rows
			if !aggregated {
				got = sortedRows(got)
			}
			if len(got) != 0 || len(want) != 0 {
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s (pushdown %v):\n got %v\nwant %v", sql, pushdown, got, want)
				}
			}
			if aggregated || stmt.Select[0].Column == "*" {
				continue
			}
			all := *stmt
			all.Select = []SelectItem{{Column: "*"}}
			res, err = q.ExecuteSpan(&all, nil)
			if err != nil {
				t.Fatal(err)
			}
			var projected [][]string
			for _, row := range res.Rows {
				var vals []string
				for _, it := range stmt.Select {
					vals = append(vals, row[tb.meta.Schema.FieldIndex(it.Column)])
				}
				projected = append(projected, vals)
			}
			if projected = sortedRows(projected); len(projected) != len(want) || len(want) > 0 && !reflect.DeepEqual(projected, want) {
				t.Fatalf("%s as select * (pushdown %v): %d rows, want %d", sql, pushdown, len(projected), len(want))
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no scan of big skipped a row group inside its file")
	}
}

// skippedGroups reads the row groups a traced scan skipped.
var skippedGroups = regexp.MustCompile(`skipped=(\d+)`)
