package query

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// fuzzSeeds is every statement the query and gateway tests and the two
// examples hand to Parse, accepted and rejected alike.
var fuzzSeeds = []string{
	"select 'a<b' from t",
	"select * from logs where start_time = 1003",
	"select * from logs where start_time >= 1010 and start_time < 1013",
	"select * from t",
	"select *, count(*) from logs",
	"select 1",
	"select a from t extra junk",
	"select a from t group a",
	"select a from t where a ! 1",
	"select a from t where a = 'unterminated",
	"select a from t where",
	"select a t",
	"select a, b from t where a = 1",
	"select count(* from t",
	"select count(*) as dau from logs where url = 'http://fin.app' group by province",
	"select count(*) from dpi_table group by province",
	"select count(*) from logs group by ghost",
	"select count(*) from logs where bytes = 3",
	"select count(*) from logs where province = 'Beijing' group by url",
	"select count(*) from logs where score < 1.0",
	"select count(*) from logs where score < 12.5 and start_time > 1004",
	"select count(*) from logs where start_time > 99999 group by province",
	"select count(*) from logs where start_time >= 1000 and start_time <= 1500 group by province",
	"select count(*) from logs where url = 5",
	"select count(*) from logs",
	"select count(*) from t where a = 1 and",
	"select count(*) from t where x = '",
	"select count(*), name as k from tb group by name",
	"select count(*), province from logs group by province",
	"select count(*), sum(bytes) as b from logs where start_time > 99999",
	"select count(*), sum(v) as total from t where s = 'x' and n <= 5",
	"select count(url) from logs where province = 'Beijing'",
	"select from t",
	"select ghost from logs",
	"select name from tb where n > 5",
	"select name, n from tb",
	"select province from logs group by province",
	"select province, count(*), sum(bytes) from logs group by province",
	"select sum(a), sum(b)",
	"select sum(amount) from ledger where account = 'alice'",
	"select sum(bytes) as b, province as p, count(*) from logs group by province",
	"select sum(bytes), count(*), sum(bytes) from logs where start_time >= 1100 group by province",
	"select sum(bytes), sum(start_time) as s from logs where start_time >= 1100 group by province",
	"select sum(x) from t group by y",
	"select url from logs where bytes = 7 and score < 3.0",
	"select url, count(*) from logs group by province",
	"select url, count(*) from logs",
	"select url, start_time from logs where start_time = 1003",
	`
		Select COUNT(*) as DAU From visits
		Where url = 'http://streamlake_fin_app.com'
		and start_time >= 1656806400 and start_time < 1656892800
		Group By province`,
	"select count(*) from t; -- trailing comment",
}

// render writes a parsed statement back as SQL.
func render(s *Stmt) string {
	var b strings.Builder
	b.WriteString("select ")
	for i, it := range s.Select {
		if i > 0 {
			b.WriteString(", ")
		}
		switch {
		case it.Agg == AggCount && it.Column == "":
			b.WriteString("count(*)")
		case it.Agg == AggCount:
			b.WriteString("count(" + it.Column + ")")
		case it.Agg == AggSum:
			b.WriteString("sum(" + it.Column + ")")
		default:
			b.WriteString(it.Column)
		}
		if it.Alias != "" {
			b.WriteString(" as " + it.Alias)
		}
	}
	b.WriteString(" from " + s.Table)
	for i, c := range s.Where {
		if i == 0 {
			b.WriteString(" where ")
		} else {
			b.WriteString(" and ")
		}
		b.WriteString(c.Column + " " + [...]string{"=", "<", "<=", ">", ">="}[c.Op] + " ")
		switch {
		case c.Lit.IsString:
			b.WriteString("'" + c.Lit.Str + "'")
		case c.Lit.IsInt:
			b.WriteString(strconv.FormatInt(c.Lit.Int, 10))
		default:
			f := strconv.FormatFloat(c.Lit.Num, 'f', -1, 64)
			if !strings.Contains(f, ".") {
				f += ".0" // the dot is what makes a literal a float
			}
			b.WriteString(f)
		}
	}
	if s.GroupBy != "" {
		b.WriteString(" group by " + s.GroupBy)
	}
	return b.String()
}

// FuzzParse: client bytes reach Parse through POST /v1/sql. Whatever
// they are, Parse returns — no panic — and what it accepts is no bigger
// than what it was given: every select item and every condition is at
// least two bytes of input. An accepted statement, written back as SQL,
// parses to the same statement.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := Parse(sql)
		if err != nil {
			return
		}
		if n := len(stmt.Select) + len(stmt.Where); 2*n > len(sql) {
			t.Fatalf("%d items and conditions from %d bytes", n, len(sql))
		}
		again, err := Parse(render(stmt))
		if err != nil {
			t.Fatalf("%q parsed, but its rendering %q does not: %v", sql, render(stmt), err)
		}
		if !reflect.DeepEqual(stmt, again) {
			t.Fatalf("%q\n parsed to %+v\n rendered %q\n parsed to %+v", sql, stmt, render(stmt), again)
		}
	})
}
