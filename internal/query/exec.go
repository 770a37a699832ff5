package query

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"streamlake/internal/colfile"
	"streamlake/internal/lakehouse"
	"streamlake/internal/obs"
	"streamlake/internal/sim"
)

// ErrOOM reports that a query exceeded the compute engine's memory
// budget — the failure mode the non-accelerated configuration hits at
// 1 GB in Figure 15(b).
var ErrOOM = errors.New("query: out of memory")

// Engine executes SQL over a lakehouse engine.
type Engine struct {
	lh *lakehouse.Engine
	// Pushdown computes filters and aggregates at the storage side
	// (Section V's computation pushdown); disabled, every matched row is
	// shipped to the compute side first.
	Pushdown bool
	// MemoryBudget bounds compute-side memory in bytes (0 = unlimited):
	// planning metadata plus, without pushdown, the shipped rows.
	MemoryBudget int64
	// net is the storage-to-compute link: under the disaggregated
	// architecture every byte reaching the compute engine crosses it,
	// which is what pushdown exists to avoid.
	net *sim.Device

	// metrics holds the obs instrument set behind an atomic pointer so
	// SetObs can be wired (or re-wired) while queries are in flight;
	// Execute loads one consistent set per query. A zero engineMetrics
	// is all nil-safe no-op counters.
	metrics atomic.Pointer[engineMetrics]
}

// engineMetrics is the query layer's obs instrument set.
type engineMetrics struct {
	queries      *obs.Counter
	pushdownHits *obs.Counter
	computeBytes *obs.Counter
}

// SetObs registers the query engine's telemetry: query volume, how
// often the aggregate pushdown fast path fired (the pushdown hit rate
// is hits/queries), and the bytes shipped into compute memory. Safe to
// call concurrently with Execute: the instrument set is swapped
// atomically, never mutated in place.
func (e *Engine) SetObs(reg *obs.Registry) {
	e.metrics.Store(&engineMetrics{
		queries:      reg.Counter("query_queries_total"),
		pushdownHits: reg.Counter("query_pushdown_hits_total"),
		computeBytes: reg.Counter("query_compute_bytes_total"),
	})
}

// obsMetrics returns the current instrument set, never nil.
func (e *Engine) obsMetrics() *engineMetrics {
	if m := e.metrics.Load(); m != nil {
		return m
	}
	return &engineMetrics{}
}

// New builds a query engine with pushdown enabled.
func New(lh *lakehouse.Engine) *Engine {
	return &Engine{lh: lh, Pushdown: true, net: sim.NewDeviceOf("compute-link", sim.Net10GbE)}
}

// ExecStats accounts one query's execution.
type ExecStats struct {
	PlanCost      time.Duration
	ExecCost      time.Duration
	MetadataBytes int64
	ComputeBytes  int64 // bytes that crossed into compute memory
	RowsScanned   int64
	FilesRead     int
	FilesSkipped  int
}

// Result is a query result set.
type Result struct {
	Columns []string
	Rows    [][]string
	Stats   ExecStats
}

const rowShipBytes = 96 // modelled per-row transfer footprint

// Query parses and executes one SELECT statement.
func (e *Engine) Query(sql string) (*Result, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.Execute(stmt)
}

// Execute runs a parsed statement, untraced.
func (e *Engine) Execute(stmt *Stmt) (*Result, error) { return e.ExecuteSpan(stmt, nil) }

// ExecuteSpan is Execute recording lakehouse.plan then lakehouse.scan
// under sp, tagging sp path=pushdown when the aggregates ran at the
// storage side. The caller ends sp with the statement's cost; its self
// time is the transfer into compute memory. A nil sp traces nothing.
func (e *Engine) ExecuteSpan(stmt *Stmt, sp *obs.Span) (*Result, error) {
	tbl, err := e.lh.Table(stmt.Table)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()
	conds, err := bindConds(schema, stmt.Where)
	if err != nil {
		return nil, err
	}
	filters := condsToFilters(schema, conds)
	// What the scan must decode: select list ∪ WHERE ∪ GROUP BY ∪ SUM
	// columns, nil (everything) under select *. itemCols is each select
	// item's column index, -1 for * and count(*).
	columns := []string{}
	itemCols := make([]int, len(stmt.Select))
	for i, item := range stmt.Select {
		itemCols[i] = -1
		if item.Column == "*" {
			columns = nil
		}
		if item.Column == "" || item.Column == "*" {
			continue
		}
		if itemCols[i] = schema.FieldIndex(item.Column); itemCols[i] < 0 {
			return nil, fmt.Errorf("query: unknown column %q", item.Column)
		}
		if item.Agg != AggCount && columns != nil {
			columns = append(columns, item.Column)
		}
	}
	aggregated := allAggregates(stmt.Select) || stmt.GroupBy != ""
	res := &Result{}
	m := e.obsMetrics()
	m.queries.Inc()

	// Fast path: pure aggregates pushed down to storage — only when the
	// range filters represent the conjuncts exactly (strict bounds on
	// floats/strings cannot be closed soundly) and the SUM items share
	// one column (all a pushed-down AggregateResult carries).
	if sumColumn, one := singleSum(stmt.Select); one && e.Pushdown && allAggregates(stmt.Select) && condsExact(conds) {
		sp.SetAttr("path", "pushdown")
		pushed, qs, err := e.lh.AggregatePushdown(stmt.Table, filters, stmt.GroupBy, sumColumn, sp)
		if err != nil {
			return nil, err
		}
		m.pushdownHits.Inc()
		res.Stats = planStats(qs)
		res.Stats.ComputeBytes = int64(len(pushed)) * rowShipBytes
		res.Stats.ExecCost += e.net.Read(res.Stats.ComputeBytes)
		m.computeBytes.Add(res.Stats.ComputeBytes)
		if err := e.checkBudget(res.Stats.ComputeBytes); err != nil {
			return nil, err
		}
		aggs := make([]aggRow, len(pushed))
		for i, a := range pushed {
			aggs[i] = aggRow{group: a.Group, count: a.Count, sums: make([]float64, len(itemCols))}
			for j := range aggs[i].sums {
				aggs[i].sums[j] = a.Sum
			}
		}
		fillAggregateResult(res, stmt, aggs)
		return res, nil
	}

	// General path: plan, scan, compute-side evaluation.
	scanFilters := filters
	if !e.Pushdown {
		// Without pushdown the storage returns whole files; filtering
		// happens compute-side.
		scanFilters = nil
	}
	gi := -1
	if stmt.GroupBy != "" {
		gi = schema.FieldIndex(stmt.GroupBy)
		if gi < 0 {
			return nil, fmt.Errorf("query: unknown group-by column %q", stmt.GroupBy)
		}
	}
	if columns != nil {
		for _, c := range conds {
			columns = append(columns, schema.Fields[c.col].Name)
		}
		if gi >= 0 {
			columns = append(columns, stmt.GroupBy)
		}
	}
	var shipped, metadata int64
	groups := map[string]*aggRow{}
	var rawRows [][]string
	var oom error
	check := func(plan lakehouse.Plan) error {
		metadata = plan.MetadataBytes
		return e.checkBudget(metadata)
	}
	qs, err := e.lh.Query(stmt.Table, filters, scanFilters, columns, sp, check, func(row colfile.Row) bool {
		shipped += rowShipBytes
		if err := e.checkBudget(metadata + shipped); err != nil {
			oom = err
			return false
		}
		// The storage-side range filters are a (possibly loose) cover;
		// the exact conjuncts are always re-checked here.
		if !rowMatchesConds(row, conds) {
			return true
		}
		if aggregated {
			key := ""
			if gi >= 0 {
				key = row[gi].String()
			}
			g := groups[key]
			if g == nil {
				g = &aggRow{group: key, sums: make([]float64, len(itemCols))}
				groups[key] = g
			}
			g.count++
			for i, item := range stmt.Select {
				if item.Agg != AggSum {
					continue
				}
				switch v := row[itemCols[i]]; v.Type {
				case colfile.Int64:
					g.sums[i] += float64(v.Int)
				case colfile.Float64:
					g.sums[i] += v.Float
				}
			}
			return true
		}
		// Plain projection.
		var out []string
		for i, item := range stmt.Select {
			if item.Column == "*" {
				for _, v := range row {
					out = append(out, v.String())
				}
				continue
			}
			out = append(out, row[itemCols[i]].String())
		}
		rawRows = append(rawRows, out)
		return true
	})
	if oom != nil {
		return nil, oom
	}
	if err != nil {
		return nil, err
	}
	// Every shipped row crosses the storage-to-compute link.
	res.Stats = planStats(qs)
	res.Stats.ExecCost += e.net.Read(shipped)
	res.Stats.ComputeBytes = shipped + metadata
	m.computeBytes.Add(res.Stats.ComputeBytes)

	if aggregated {
		aggs := make([]aggRow, 0, len(groups))
		for _, g := range groups {
			aggs = append(aggs, *g)
		}
		sort.Slice(aggs, func(i, j int) bool { return aggs[i].group < aggs[j].group })
		fillAggregateResult(res, stmt, aggs)
		return res, nil
	}
	res.Columns = projectionColumns(stmt, schema)
	res.Rows = rawRows
	return res, nil
}

// planStats is a query's accounting of its plan and scan.
func planStats(qs lakehouse.QueryStats) ExecStats {
	return ExecStats{PlanCost: qs.PlanCost, ExecCost: qs.ScanCost, MetadataBytes: qs.Plan.MetadataBytes,
		RowsScanned: qs.Scan.RowsScanned, FilesRead: len(qs.Plan.Files), FilesSkipped: qs.Plan.SkippedFiles}
}

// aggRow is one group of an aggregate query: its row count and one sum
// per select item (meaningful at the SUM items' positions).
type aggRow struct {
	group string
	count int64
	sums  []float64
}

// singleSum returns the column the statement's SUM items name ("" when
// there is none); one is false when they name different columns.
func singleSum(items []SelectItem) (col string, one bool) {
	for _, it := range items {
		if it.Agg != AggSum {
			continue
		}
		if col != "" && col != it.Column {
			return "", false
		}
		col = it.Column
	}
	return col, true
}

func (e *Engine) checkBudget(used int64) error {
	if e.MemoryBudget > 0 && used > e.MemoryBudget {
		return fmt.Errorf("%w: %d bytes exceeds budget %d", ErrOOM, used, e.MemoryBudget)
	}
	return nil
}

// condsExact reports whether every conjunct is exactly representable as
// a closed range filter.
func condsExact(conds []boundCond) bool {
	for _, c := range conds {
		if (c.op == OpLT || c.op == OpGT) && c.val.Type != colfile.Int64 {
			return false
		}
	}
	return true
}

func allAggregates(items []SelectItem) bool {
	for _, it := range items {
		if it.Agg == AggNone {
			return false
		}
	}
	return len(items) > 0
}

func fillAggregateResult(res *Result, stmt *Stmt, aggs []aggRow) {
	if stmt.GroupBy != "" {
		res.Columns = append(res.Columns, stmt.GroupBy)
	}
	for _, item := range stmt.Select {
		name := item.Alias
		if name == "" {
			switch item.Agg {
			case AggCount:
				name = "count"
			case AggSum:
				name = "sum(" + item.Column + ")"
			}
		}
		res.Columns = append(res.Columns, name)
	}
	for _, a := range aggs {
		var row []string
		if stmt.GroupBy != "" {
			row = append(row, a.group)
		}
		for i, item := range stmt.Select {
			switch item.Agg {
			case AggCount:
				row = append(row, fmt.Sprintf("%d", a.count))
			case AggSum:
				row = append(row, trimFloat(a.sums[i]))
			}
		}
		res.Rows = append(res.Rows, row)
	}
}

func trimFloat(f float64) string {
	if f == float64(int64(f)) {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%g", f)
}

func projectionColumns(stmt *Stmt, schema colfile.Schema) []string {
	var out []string
	for _, item := range stmt.Select {
		if item.Column == "*" {
			for _, f := range schema.Fields {
				out = append(out, f.Name)
			}
			continue
		}
		name := item.Alias
		if name == "" {
			name = item.Column
		}
		out = append(out, name)
	}
	return out
}

// boundCond is a WHERE conjunct resolved against the schema once per
// query: the column's index and the literal as a value of its type.
type boundCond struct {
	col int
	op  CondOp
	val colfile.Value
}

func bindConds(schema colfile.Schema, conds []Cond) ([]boundCond, error) {
	out := make([]boundCond, 0, len(conds))
	for _, c := range conds {
		ci := schema.FieldIndex(c.Column)
		if ci < 0 {
			return nil, fmt.Errorf("query: unknown column %q", c.Column)
		}
		v, err := literalToValue(schema.Fields[ci].Type, c.Lit)
		if err != nil {
			return nil, err
		}
		out = append(out, boundCond{col: ci, op: c.Op, val: v})
	}
	return out, nil
}

// condsToFilters lowers WHERE conjuncts to storage range filters.
func condsToFilters(schema colfile.Schema, conds []boundCond) []lakehouse.RangeFilter {
	byCol := map[int]*lakehouse.RangeFilter{}
	var order []int
	for _, c := range conds {
		f := byCol[c.col]
		if f == nil {
			f = &lakehouse.RangeFilter{Column: schema.Fields[c.col].Name}
			byCol[c.col] = f
			order = append(order, c.col)
		}
		switch c.op {
		case OpEQ:
			setLo(f, c.val)
			setHi(f, c.val)
		case OpLE:
			setHi(f, c.val)
		case OpGE:
			setLo(f, c.val)
		case OpLT:
			setHi(f, pred(c.val))
		case OpGT:
			setLo(f, succ(c.val))
		}
	}
	out := make([]lakehouse.RangeFilter, 0, len(order))
	for _, col := range order {
		out = append(out, *byCol[col])
	}
	return out
}

func setLo(f *lakehouse.RangeFilter, v colfile.Value) {
	if f.Lo == nil || colfile.Compare(v, *f.Lo) > 0 {
		f.Lo = &v
	}
}

func setHi(f *lakehouse.RangeFilter, v colfile.Value) {
	if f.Hi == nil || colfile.Compare(v, *f.Hi) < 0 {
		f.Hi = &v
	}
}

// pred/succ adjust strict bounds to closed bounds for discrete types;
// floats and strings keep the literal (strictness handled by row
// filtering — a sound over-approximation at the file-skipping level).
func pred(v colfile.Value) colfile.Value {
	if v.Type == colfile.Int64 {
		return colfile.IntValue(v.Int - 1)
	}
	return v
}

func succ(v colfile.Value) colfile.Value {
	if v.Type == colfile.Int64 {
		return colfile.IntValue(v.Int + 1)
	}
	return v
}

func literalToValue(t colfile.Type, lit Literal) (colfile.Value, error) {
	switch t {
	case colfile.Int64:
		if lit.IsString {
			return colfile.Value{}, errors.New("query: string literal for int column")
		}
		if lit.IsInt {
			return colfile.IntValue(lit.Int), nil
		}
		return colfile.IntValue(int64(lit.Num)), nil
	case colfile.Float64:
		if lit.IsString {
			return colfile.Value{}, errors.New("query: string literal for float column")
		}
		return colfile.FloatValue(lit.Num), nil
	case colfile.String:
		if !lit.IsString {
			return colfile.Value{}, errors.New("query: non-string literal for string column")
		}
		return colfile.StringValue(lit.Str), nil
	case colfile.Bool:
		return colfile.Value{}, errors.New("query: bool columns not comparable in WHERE")
	}
	return colfile.Value{}, errors.New("query: unsupported column type")
}

// rowMatchesConds evaluates the original conjuncts (including strict
// inequalities) compute-side.
func rowMatchesConds(row colfile.Row, conds []boundCond) bool {
	for _, c := range conds {
		cmp := colfile.Compare(row[c.col], c.val)
		switch c.op {
		case OpEQ:
			if cmp != 0 {
				return false
			}
		case OpLT:
			if cmp >= 0 {
				return false
			}
		case OpLE:
			if cmp > 0 {
				return false
			}
		case OpGT:
			if cmp <= 0 {
				return false
			}
		case OpGE:
			if cmp < 0 {
				return false
			}
		}
	}
	return true
}
