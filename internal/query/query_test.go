package query

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"streamlake/internal/cache"
	"streamlake/internal/colfile"
	"streamlake/internal/lakehouse"
	"streamlake/internal/plog"
	"streamlake/internal/pool"
	"streamlake/internal/sim"
	"streamlake/internal/tableobj"
)

func TestParseDAUQuery(t *testing.T) {
	// Figure 13 verbatim (modulo the IN-line comments).
	sql := `Select COUNT(*) as DAU
From TB_DPI_LOG_HOURS
Where url = 'http://streamlake_fin_app.com'
and start_time >= 1656806400 --July 3rd, 2022
and start_time < 1656892800 --July 4th, 2022
Group By province;`
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Select) != 1 || stmt.Select[0].Agg != AggCount || stmt.Select[0].Alias != "DAU" {
		t.Fatalf("select: %+v", stmt.Select)
	}
	if stmt.Table != "tb_dpi_log_hours" || stmt.GroupBy != "province" {
		t.Fatalf("stmt: %+v", stmt)
	}
	if len(stmt.Where) != 3 {
		t.Fatalf("where: %+v", stmt.Where)
	}
	if stmt.Where[0].Op != OpEQ || !stmt.Where[0].Lit.IsString {
		t.Fatalf("where[0]: %+v", stmt.Where[0])
	}
	if stmt.Where[1].Op != OpGE || stmt.Where[1].Lit.Int != 1656806400 {
		t.Fatalf("where[1]: %+v", stmt.Where[1])
	}
	if stmt.Where[2].Op != OpLT {
		t.Fatalf("where[2]: %+v", stmt.Where[2])
	}
}

func TestParseVariants(t *testing.T) {
	cases := []string{
		"select * from t",
		"select a, b from t where a = 1",
		"select sum(x) from t group by y",
		"select count(*), sum(v) as total from t where s = 'x' and n <= 5",
	}
	for _, sql := range cases {
		if _, err := Parse(sql); err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
	}
	bad := []string{
		"", "insert into t", "select from t", "select a t",
		"select a from t where", "select a from t where a ! 1",
		"select a from t where a = 'unterminated",
		"select a from t group a", "select a from t extra junk",
		"select count(* from t", "select count(*) from t where a = 1 and",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Fatalf("%q accepted", sql)
		}
	}
}

var dpiSchema = colfile.MustSchema("url:string", "start_time:int64", "province:string", "bytes:int64", "score:float64")

func newEngine(t testing.TB) (*Engine, *lakehouse.Engine) {
	t.Helper()
	clock := sim.NewClock()
	p := pool.New("q", clock, sim.NVMeSSD, 8, 4<<20)
	fs := tableobj.NewFileStore(plog.NewManager(p, 8<<20))
	cat := tableobj.NewCatalog(clock)
	lh := lakehouse.New(clock, fs, cat, lakehouse.Options{Acceleration: true})
	if _, err := lh.CreateTable(tableobj.TableMeta{
		Name: "logs", Path: "/lake/logs", Schema: dpiSchema, PartitionColumn: "province",
	}); err != nil {
		t.Fatal(err)
	}
	return New(lh), lh
}

func loadRows(t testing.TB, lh *lakehouse.Engine, n int) {
	t.Helper()
	var rows []colfile.Row
	for i := 0; i < n; i++ {
		url := "http://fin.app"
		if i%4 == 0 {
			url = "http://other.app"
		}
		rows = append(rows, colfile.Row{
			colfile.StringValue(url),
			colfile.IntValue(int64(1000 + i)),
			colfile.StringValue([]string{"Beijing", "Shanghai"}[i%2]),
			colfile.IntValue(int64(i % 10)),
			colfile.FloatValue(float64(i) / 10),
		})
	}
	if _, err := lh.Insert("logs", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := lh.Flush("logs"); err != nil {
		t.Fatal(err)
	}
}

func TestCountGroupBy(t *testing.T) {
	e, lh := newEngine(t)
	loadRows(t, lh, 1000)
	res, err := e.Query("select count(*) as dau from logs where url = 'http://fin.app' group by province")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Columns[0] != "province" || res.Columns[1] != "dau" {
		t.Fatalf("result: %+v", res)
	}
	var total int64
	for _, r := range res.Rows {
		var c int64
		fmt.Sscanf(r[1], "%d", &c)
		total += c
	}
	if total != 750 {
		t.Fatalf("total count: %d", total)
	}
}

// An aggregate's columns follow its select list: a group key the list
// names keeps its position and alias, and one it does not name comes
// first. The key once came first regardless, and its item added an
// empty column name, over rows one value shorter than the header.
func TestGroupKeyFollowsTheSelectList(t *testing.T) {
	e, lh := newEngine(t)
	loadRows(t, lh, 40)
	cases := []struct {
		sql  string
		cols []string
	}{
		{"select province, count(*), sum(bytes) from logs group by province", []string{"province", "count", "sum(bytes)"}},
		{"select count(*), province from logs group by province", []string{"count", "province"}},
		{"select sum(bytes) as b, province as p, count(*) from logs group by province", []string{"b", "p", "count"}},
		{"select count(*) from logs group by province", []string{"province", "count"}},
		{"select province from logs group by province", []string{"province"}},
	}
	for _, tc := range cases {
		for _, pushdown := range []bool{true, false} {
			e.Pushdown = pushdown
			res, err := e.Query(tc.sql)
			if err != nil {
				t.Fatalf("%q pushdown=%v: %v", tc.sql, pushdown, err)
			}
			if !reflect.DeepEqual(res.Columns, tc.cols) || len(res.Rows) != 2 {
				t.Fatalf("%q pushdown=%v: columns %q over rows %v", tc.sql, pushdown, res.Columns, res.Rows)
			}
			for _, row := range res.Rows {
				if len(row) != len(tc.cols) || !slices.Contains(row, "Beijing") && !slices.Contains(row, "Shanghai") {
					t.Fatalf("%q pushdown=%v: row %v under %q", tc.sql, pushdown, row, tc.cols)
				}
			}
		}
	}
	for _, sql := range []string{"select url, count(*) from logs group by province", "select url, count(*) from logs", "select *, count(*) from logs"} {
		if _, err := e.Query(sql); err == nil {
			t.Fatalf("%q: an item neither grouped nor aggregated was accepted", sql)
		}
	}
}

// An aggregate without GROUP BY answers one row even when no row
// matches: COUNT is 0 and SUM is NULL. A grouped one answers no row.
func TestAggregateOverNoRowsAnswersOneRow(t *testing.T) {
	e, lh := newEngine(t)
	loadRows(t, lh, 40)
	for _, pushdown := range []bool{true, false} {
		e.Pushdown = pushdown
		res, err := e.Query("select count(*), sum(bytes) as b from logs where start_time > 99999")
		if err != nil || !reflect.DeepEqual(res.Rows, [][]string{{"0", "NULL"}}) || !reflect.DeepEqual(res.Columns, []string{"count", "b"}) {
			t.Fatalf("pushdown=%v: %+v, %v", pushdown, res, err)
		}
		res, err = e.Query("select count(*) from logs where start_time > 99999 group by province")
		if err != nil || len(res.Rows) != 0 {
			t.Fatalf("pushdown=%v grouped: %+v, %v", pushdown, res, err)
		}
	}
}

func TestPushdownMatchesComputeSide(t *testing.T) {
	e, lh := newEngine(t)
	loadRows(t, lh, 2000)
	queries := []string{
		"select count(*) from logs",
		"select count(*) from logs where start_time >= 1500 and start_time < 1600",
		"select count(*) from logs where province = 'Beijing' group by url",
		"select sum(bytes) from logs where start_time > 1100 group by province",
		"select count(*) from logs where score < 50.0",
	}
	for _, sql := range queries {
		e.Pushdown = true
		a, err := e.Query(sql)
		if err != nil {
			t.Fatalf("%q pushdown: %v", sql, err)
		}
		e.Pushdown = false
		b, err := e.Query(sql)
		if err != nil {
			t.Fatalf("%q compute-side: %v", sql, err)
		}
		if len(a.Rows) != len(b.Rows) {
			t.Fatalf("%q: pushdown %v vs compute %v", sql, a.Rows, b.Rows)
		}
		for i := range a.Rows {
			for j := range a.Rows[i] {
				if a.Rows[i][j] != b.Rows[i][j] {
					t.Fatalf("%q row %d: %v vs %v", sql, i, a.Rows[i], b.Rows[i])
				}
			}
		}
	}
}

func TestPushdownShipsLessToCompute(t *testing.T) {
	e, lh := newEngine(t)
	loadRows(t, lh, 5000)
	sql := "select count(*) from logs where start_time >= 1000 and start_time <= 1500 group by province"
	e.Pushdown = true
	a, err := e.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	e.Pushdown = false
	b, err := e.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.ComputeBytes >= b.Stats.ComputeBytes {
		t.Fatalf("pushdown shipped %d bytes >= %d", a.Stats.ComputeBytes, b.Stats.ComputeBytes)
	}
}

func TestProjection(t *testing.T) {
	e, lh := newEngine(t)
	loadRows(t, lh, 10)
	res, err := e.Query("select url, start_time from logs where start_time = 1003")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1] != "1003" {
		t.Fatalf("rows: %+v", res.Rows)
	}
	if res.Columns[0] != "url" || res.Columns[1] != "start_time" {
		t.Fatalf("cols: %v", res.Columns)
	}
	// SELECT * expands the schema.
	res, err = e.Query("select * from logs where start_time = 1003")
	if err != nil || len(res.Columns) != 5 {
		t.Fatalf("star: %v %v", res.Columns, err)
	}
}

func TestMemoryBudgetOOM(t *testing.T) {
	e, lh := newEngine(t)
	loadRows(t, lh, 5000)
	// Without pushdown every matched row ships to compute; a tiny
	// budget must OOM — the Figure 15(b) failure.
	e.Pushdown = false
	e.MemoryBudget = 10_000
	_, err := e.Query("select count(*) from logs")
	if !errors.Is(err, ErrOOM) {
		t.Fatalf("expected OOM, got %v", err)
	}
	// With pushdown, the same budget succeeds: only aggregates ship.
	e.Pushdown = true
	if _, err := e.Query("select count(*) from logs"); err != nil {
		t.Fatalf("pushdown under budget: %v", err)
	}
}

func TestUnknownTableAndColumns(t *testing.T) {
	e, _ := newEngine(t)
	if _, err := e.Query("select count(*) from ghost"); err == nil {
		t.Fatal("unknown table accepted")
	}
	if _, err := e.Query("select count(*) from logs where ghost = 1"); err == nil {
		t.Fatal("unknown where column accepted")
	}
	if _, err := e.Query("select ghost from logs"); err == nil {
		t.Fatal("unknown projection column accepted")
	}
	if _, err := e.Query("select count(*) from logs group by ghost"); err == nil {
		t.Fatal("unknown group column accepted")
	}
	if _, err := e.Query("select count(*) from logs where url = 5"); err == nil {
		t.Fatal("type-mismatched literal accepted")
	}
}

func TestStrictFloatBoundsCorrect(t *testing.T) {
	e, lh := newEngine(t)
	loadRows(t, lh, 100) // scores 0.0 .. 9.9
	res, err := e.Query("select count(*) from logs where score < 1.0")
	if err != nil {
		t.Fatal(err)
	}
	// scores 0.0..0.9 -> 10 rows; strict < must exclude 1.0.
	if res.Rows[0][0] != "10" {
		t.Fatalf("strict float count: %v", res.Rows)
	}
}

// A pushed-down query reports the plan it ran on: the same statement
// with pushdown on and off reads, skips and loads the same files and
// metadata, and on both paths the plan's cost is its own, not folded
// into the execution's.
func TestPushdownReportsItsPlan(t *testing.T) {
	e, lh := newEngine(t)
	for b := 0; b < 4; b++ {
		var rows []colfile.Row
		for i := 0; i < 50; i++ {
			rows = append(rows, colfile.Row{colfile.StringValue("http://fin.app"), colfile.IntValue(int64(1000*b + i)),
				colfile.StringValue([]string{"Beijing", "Shanghai"}[i%2]), colfile.IntValue(int64(i % 10)), colfile.FloatValue(0)})
		}
		if _, err := lh.Insert("logs", rows); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := lh.Flush("logs"); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{"select count(*) from logs", "select count(*), sum(bytes) from logs where start_time >= 3000 group by province"} {
		var stats [2]ExecStats
		for i, pushdown := range []bool{true, false} {
			e.Pushdown = pushdown
			res, err := e.Query(sql)
			if err != nil {
				t.Fatal(err)
			}
			stats[i] = res.Stats
		}
		on, off := stats[0], stats[1]
		if on.FilesRead == 0 || on.PlanCost == 0 || off.PlanCost == 0 || on.RowsScanned == 0 ||
			on.FilesRead != off.FilesRead || on.FilesSkipped != off.FilesSkipped || on.MetadataBytes != off.MetadataBytes {
			t.Fatalf("%q: pushdown on %+v, off %+v", sql, on, off)
		}
	}
}

// Damaged statistics fail a SQL query that admits their file, on the
// pushdown path and the general path alike, although neither decodes
// an admitted file's statistics: planning walks them. One row's stats
// have their last value's type byte damaged in the cached checkpoint;
// a query that range-rejects the file on an intact column answers, one
// that admits it fails and drops the cached copy, and the next reads
// the intact file fs holds.
func TestQueryCorruptCachedStats(t *testing.T) {
	for _, pushdown := range []bool{true, false} {
		clock := sim.NewClock()
		fs := tableobj.NewFileStore(plog.NewManager(pool.New("q", clock, sim.NVMeSSD, 8, 4<<20), 8<<20))
		lh := lakehouse.New(clock, fs, tableobj.NewCatalog(clock), lakehouse.Options{Acceleration: true})
		c := cache.New(cache.Config{DRAMBytes: 1 << 20, SCMBytes: 4 << 20})
		lh.SetCache(c)
		if _, err := lh.CreateTable(tableobj.TableMeta{Name: "logs", Path: "/lake/logs", Schema: dpiSchema}); err != nil {
			t.Fatal(err)
		}
		r := colfile.Row{colfile.StringValue("http://fin.app"), colfile.IntValue(5), colfile.StringValue("bj"), colfile.IntValue(7), colfile.FloatValue(0.5)}
		if _, err := lh.Insert("logs", []colfile.Row{r}); err != nil {
			t.Fatal(err)
		}
		if _, err := lh.Flush("logs"); err != nil {
			t.Fatal(err)
		}
		stats := binary.AppendUvarint(nil, uint64(len(r)))
		for _, v := range r {
			stats = colfile.AppendValue(colfile.AppendValue(stats, v), v)
		}
		paths, _ := fs.List("/lake/logs/metadata/checkpoints/")
		if len(paths) != 1 {
			t.Fatalf("metadata checkpoints: %v", paths)
		}
		blob, _, err := fs.Read(paths[0])
		at := bytes.Index(blob, stats)
		if err != nil || at < 0 {
			t.Fatalf("stats not found in the checkpoint: %v", err)
		}
		bad := append([]byte(nil), blob...)
		bad[at+len(stats)-len(colfile.AppendValue(nil, r[4]))] = 0xEE
		c.Put("manifest/logs/"+paths[0], bad) // the key planning reads the checkpoint under

		e := New(lh)
		e.Pushdown = pushdown
		count := func(sql string) (string, error) {
			res, err := e.Query(sql)
			if err != nil || len(res.Rows) == 0 { // no row matched: no group
				return "0", err
			}
			return res.Rows[0][0], nil
		}
		if n, err := count("select count(*) from logs where start_time >= 100"); err != nil || n != "0" {
			t.Fatalf("pushdown=%v: a query rejecting the file on an intact column: %q, %v", pushdown, n, err)
		}
		if _, err := count("select count(*) from logs"); err == nil {
			t.Fatalf("pushdown=%v: a query admitting the file with damaged stats succeeded", pushdown)
		}
		if n, err := count("select count(*) from logs"); err != nil || n != "1" {
			t.Fatalf("pushdown=%v: the query after the failure did not reread the intact file: %q, %v", pushdown, n, err)
		}
	}
}
