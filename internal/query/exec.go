package query

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
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
	// ExecuteSpan loads one consistent set per query. A zero
	// engineMetrics is all nil-safe no-op counters.
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
// call concurrently with ExecuteSpan: the instrument set is swapped
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
	return e.ExecuteSpan(stmt, nil)
}

// ExecuteSpan runs a parsed statement, recording lakehouse.plan,
// lakehouse.scan and query.ship (the transfer into compute memory)
// under sp, tagging sp path=pushdown when the aggregates ran at the
// storage side. The caller ends sp with the statement's cost. A nil sp
// traces nothing.
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
	filters, loose := condsToFilters(schema, conds)
	// What the scan must decode: select list ∪ WHERE ∪ GROUP BY ∪ SUM
	// columns, nil (everything) under select *. itemCols is each select
	// item's column index, -1 for * and count(*); sums are the SUM items'
	// columns, in select order.
	columns := []string{}
	itemCols := make([]int, len(stmt.Select))
	var sums []string
	aggregated := stmt.GroupBy != ""
	for i, item := range stmt.Select {
		itemCols[i] = -1
		aggregated = aggregated || item.Agg != AggNone
		if item.Agg == AggSum {
			sums = append(sums, item.Column)
		}
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
	if stmt.GroupBy != "" && schema.FieldIndex(stmt.GroupBy) < 0 {
		return nil, fmt.Errorf("query: unknown group-by column %q", stmt.GroupBy)
	}
	for _, item := range stmt.Select {
		if aggregated && item.Agg == AggNone && item.Column != stmt.GroupBy {
			return nil, fmt.Errorf("query: %q is neither grouped nor aggregated", item.Column)
		}
	}
	res := &Result{}
	m := e.obsMetrics()
	m.queries.Inc()

	// Aggregates run at the storage side, and only the groups ship. The
	// storage side checks the conjuncts its ranges only cover.
	if aggregated && e.Pushdown {
		var keep func(colfile.Row) bool
		if len(loose) > 0 {
			keep = func(row colfile.Row) bool { return rowMatchesConds(row, loose) }
		}
		sp.SetAttr("path", "pushdown")
		groups, qs, err := e.lh.AggregatePushdown(stmt.Table, filters, stmt.GroupBy, sums, keep, sp)
		if err != nil {
			return nil, err
		}
		m.pushdownHits.Inc()
		res.Stats = planStats(qs)
		res.Stats.ComputeBytes = int64(len(groups)) * rowShipBytes
		res.Stats.ExecCost += e.ship(res.Stats.ComputeBytes, sp)
		m.computeBytes.Add(res.Stats.ComputeBytes)
		if err := e.checkBudget(res.Stats.ComputeBytes); err != nil {
			return nil, err
		}
		fillAggregateResult(res, stmt, groups)
		return res, nil
	}

	// General path: plan, scan, ship every row, evaluate at compute.
	scanFilters := filters
	if !e.Pushdown {
		// Without pushdown the storage returns whole files; filtering
		// happens compute-side.
		scanFilters = nil
	}
	if columns != nil {
		for _, c := range conds {
			columns = append(columns, schema.Fields[c.col].Name)
		}
		if stmt.GroupBy != "" {
			columns = append(columns, stmt.GroupBy)
		}
	}
	var fold *lakehouse.Fold
	if aggregated {
		if fold, err = lakehouse.NewFold(schema, stmt.GroupBy, sums); err != nil {
			return nil, err
		}
	}
	var shipped, metadata int64
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
		if fold != nil {
			fold.Add(row)
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
	res.Stats.ExecCost += e.ship(shipped, sp)
	res.Stats.ComputeBytes = shipped + metadata
	m.computeBytes.Add(res.Stats.ComputeBytes)

	if fold != nil {
		fillAggregateResult(res, stmt, fold.Results())
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

// ship charges the transfer of n bytes over the compute link, recorded
// as a query.ship child of sp.
func (e *Engine) ship(n int64, sp *obs.Span) time.Duration {
	cost := e.net.Read(n)
	if ssp := sp.Child("query.ship"); ssp != nil {
		ssp.SetAttr("bytes", strconv.FormatInt(n, 10))
		ssp.End(cost)
		sp.Advance(cost)
	}
	return cost
}

func (e *Engine) checkBudget(used int64) error {
	if e.MemoryBudget > 0 && used > e.MemoryBudget {
		return fmt.Errorf("%w: %d bytes exceeds budget %d", ErrOOM, used, e.MemoryBudget)
	}
	return nil
}

// fillAggregateResult renders the groups. The columns follow the select
// list, its order and its aliases; a group key the list does not name
// comes first, because DAU readers take row[0] for the key. The SUM of
// no rows (an ungrouped aggregate that matched none) is NULL.
func fillAggregateResult(res *Result, stmt *Stmt, groups []lakehouse.AggregateResult) {
	items := stmt.Select
	if stmt.GroupBy != "" && !slices.ContainsFunc(items, func(it SelectItem) bool { return it.Agg == AggNone }) {
		items = append([]SelectItem{{Column: stmt.GroupBy}}, items...)
	}
	for _, item := range items {
		res.Columns = append(res.Columns, itemName(item))
	}
	for _, g := range groups {
		row, sum := make([]string, 0, len(items)), 0
		for _, item := range items {
			switch {
			case item.Agg == AggNone:
				row = append(row, g.Group)
			case item.Agg == AggCount:
				row = append(row, strconv.FormatInt(g.Count, 10))
			case g.Count == 0:
				row, sum = append(row, "NULL"), sum+1
			default:
				row, sum = append(row, trimFloat(g.Sums[sum])), sum+1
			}
		}
		res.Rows = append(res.Rows, row)
	}
}

// itemName is a select item's output column: its alias, else count,
// sum(column) or the column.
func itemName(item SelectItem) string {
	switch {
	case item.Alias != "":
		return item.Alias
	case item.Agg == AggCount:
		return "count"
	case item.Agg == AggSum:
		return "sum(" + item.Column + ")"
	}
	return item.Column
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
		out = append(out, itemName(item))
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

// condsToFilters lowers WHERE conjuncts to storage range filters. loose
// are the conjuncts a closed range covers but does not state (a strict
// bound on a float or a string): a row the filters admit must still pass
// them.
func condsToFilters(schema colfile.Schema, conds []boundCond) (filters []lakehouse.RangeFilter, loose []boundCond) {
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
		if (c.op == OpLT || c.op == OpGT) && c.val.Type != colfile.Int64 {
			loose = append(loose, c)
		}
	}
	filters = make([]lakehouse.RangeFilter, 0, len(order))
	for _, col := range order {
		filters = append(filters, *byCol[col])
	}
	return filters, loose
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
