package lakehouse

import (
	"errors"
	"slices"
	"strconv"
	"strings"
	"time"

	"streamlake/internal/colfile"
	"streamlake/internal/obs"
	"streamlake/internal/tableobj"
)

// scanMetrics is the lakehouse layer's obs instrument set; wired once
// by SetObs, nil-safe no-ops until then.
type scanMetrics struct {
	scans        *obs.Counter
	rowsScanned  *obs.Counter
	readBytes    *obs.Counter
	skippedBytes *obs.Counter
	plans        *obs.Counter
	prunedFiles  *obs.Counter
	scanLat      *obs.Histogram
}

// SetObs registers the lakehouse engine's scan telemetry. Call at
// wiring time, before the engine serves queries.
func (e *Engine) SetObs(reg *obs.Registry) {
	e.mu.Lock()
	e.metrics = scanMetrics{
		scans:        reg.Counter("lakehouse_scans_total"),
		rowsScanned:  reg.Counter("lakehouse_rows_scanned_total"),
		readBytes:    reg.Counter("lakehouse_scan_read_bytes_total"),
		skippedBytes: reg.Counter("lakehouse_scan_skipped_bytes_total"),
		plans:        reg.Counter("lakehouse_plans_total"),
		prunedFiles:  reg.Counter("lakehouse_pruned_files_total"),
		scanLat:      reg.Histogram("lakehouse_scan_seconds"),
	}
	e.mu.Unlock()
}

// RangeFilter is a pushdown predicate on one column: lo <= col <= hi,
// with nil bounds unbounded. It is the storage-side predicate shape the
// engine understands for data skipping and pushdown.
type RangeFilter struct {
	Column string
	Lo, Hi *colfile.Value
}

// Plan is the result of query planning: the data files a scan must
// visit, plus accounting of the planning work — the quantities Figure 15
// measures.
type Plan struct {
	// Files are the admitted files. In a plan Query makes, a file the
	// manifest admitted carries no statistics: they were only checked.
	Files []tableobj.DataFile
	// MetadataBytes is how much metadata the compute engine had to load
	// to plan the query; the baseline loads the whole listing, the
	// accelerated path only the matched manifest entries (Figure 15-b's
	// memory pressure).
	MetadataBytes int64
	// SkippedFiles counts files pruned by statistics.
	SkippedFiles int
	// TotalFiles is the table's current file count.
	TotalFiles int
}

const fileMetaBytes = 220 // approximate manifest entry footprint

// PlanScan resolves the files a filtered scan must read. With
// acceleration the current snapshot manifest comes from the catalog
// pointer + snapshot file + cached pending records (cost independent of
// partition count); without it the engine behaves like a file-based
// catalog: it lists the data directory and opens every file's footer.
func (e *Engine) PlanScan(name string, filters []RangeFilter) (Plan, time.Duration, error) {
	return e.plan(name, 0, filters, nil, true)
}

// plan is PlanScan recording a lakehouse.plan child of sp: the total,
// pruned and admitted files, and what served the manifest (memo, cache
// or device). A nil sp traces nothing. Only with decode does a file the
// manifest admits carry its decoded statistics. A writer plans on the
// snapshot id it commits against, and the plan admits only its files.
func (e *Engine) plan(name string, id int64, filters []RangeFilter, sp *obs.Span, decode bool) (Plan, time.Duration, error) {
	st, err := e.state(name)
	if err != nil {
		return Plan{}, 0, err
	}
	psp := sp.Child("lakehouse.plan")
	var plan Plan
	var cost time.Duration
	if e.opts.Acceleration || id != 0 {
		plan, cost, err = e.planAccelerated(st, id, filters, psp, decode)
	} else {
		plan, cost, err = e.planFileBased(st, filters)
	}
	if psp != nil {
		psp.SetAttr("total", strconv.Itoa(plan.TotalFiles))
		psp.SetAttr("pruned", strconv.Itoa(plan.SkippedFiles))
		psp.SetAttr("admitted", strconv.Itoa(len(plan.Files)))
		psp.End(cost)
		sp.Advance(cost)
	}
	if err == nil {
		e.mu.Lock()
		m := e.metrics
		e.mu.Unlock()
		m.plans.Inc()
		m.prunedFiles.Add(int64(plan.SkippedFiles))
	}
	return plan, cost, err
}

func (e *Engine) planAccelerated(st *tableState, id int64, filters []RangeFilter, sp *obs.Span, decode bool) (Plan, time.Duration, error) {
	// The write cache is read before the pointer: a flush drops records
	// only once they are committed, so one missing here is in the
	// snapshot, and one in both is admitted once.
	var pending []tableobj.DataFile
	var cached map[string]bool // pending paths the snapshot does not hold
	if id == 0 {               // a plan at a snapshot admits only its files
		e.mu.Lock()
		pending = st.pendingAdds
		e.mu.Unlock()
	}
	for _, f := range pending {
		if cached == nil {
			cached = make(map[string]bool, len(pending))
		}
		cached[f.Path] = true
	}
	m, src, cost, err := e.manifest(st, id)
	if err != nil {
		return Plan{}, cost, err
	}
	sp.SetAttr("manifest", src)
	schema := st.tbl.Schema()
	bound := bindFilters(schema, filters)
	plan := Plan{TotalFiles: len(m.Entries) + len(pending)}
	// Prune first, so Files is made once at its final length.
	var small [1024]bool
	keep := small[:0] // keep[i]: entry i passes rangeRejects
	for _, ent := range m.Entries {
		if cached[ent.Path] {
			cached[ent.Path] = false
			plan.TotalFiles--
		}
		if keep = append(keep, !rangeRejects(ent, bound)); !keep[len(keep)-1] {
			plan.SkippedFiles++
		}
	}
	admitted := len(m.Entries) - plan.SkippedFiles
	for _, f := range pending {
		if cached[f.Path] && !filePrune(schema, f, filters) {
			admitted++
		}
	}
	if admitted > 0 {
		plan.Files = make([]tableobj.DataFile, 0, admitted)
	}
	for i, ent := range m.Entries {
		if !keep[i] {
			continue
		}
		// Past rangeRejects nothing prunes it: it admits as its bare
		// DataFile unless the plan decodes statistics.
		f := tableobj.DataFile{Path: ent.Path, Partition: ent.Partition, Rows: ent.Rows, Bytes: ent.Bytes}
		var err error
		if decode {
			f, err = ent.File()
		} else {
			err = ent.Check()
		}
		if err != nil {
			// Undecodable stats: forget the memo and the cached file, so
			// the next plan decodes the bytes fs holds.
			st.manifest.CompareAndSwap(m, nil)
			e.invalidateManifests(st.tbl.Meta().Name)
			return Plan{}, cost, err
		}
		plan.Files = append(plan.Files, f)
	}
	for _, f := range pending {
		if cached[f.Path] {
			plan.admit(schema, f, filters)
		}
	}
	// Only the matched entries reach the compute engine.
	plan.MetadataBytes = int64(len(plan.Files)) * fileMetaBytes
	return plan, cost, nil
}

// rangeRejects is filePrune on the entry's encoded ranges.
func rangeRejects(ent tableobj.ManifestEntry, filters []boundFilter) bool {
	for _, flt := range filters {
		if !ent.Overlaps(flt.col, flt.lo, flt.hi) {
			return true
		}
	}
	return ent.Rows == 0
}

// manifest resolves the manifest of snapshot id, the current one for id
// 0: the snapshot's header, checkpoint and commit files
// (tableobj.LoadManifest), each from the read cache if attached (Figure
// 15: repeated planning reads no device bytes). Those files are
// immutable, so an unmoved pointer reuses the table's memo after the same
// lookup and header read, and a moved one over the same checkpoint reads
// only the commits the memo lacks. src names what served the manifest:
// memo, cache (every file) or device.
func (e *Engine) manifest(st *tableState, id int64) (m *tableobj.Manifest, src string, cost time.Duration, err error) {
	e.mu.Lock()
	c := e.rcache
	e.mu.Unlock()
	memo, meta := st.manifest.Load(), st.tbl.Meta()
	if id == 0 {
		if id, err = e.cat.SnapshotPointer(meta.Name); err != nil {
			return nil, "", 0, err
		}
	}
	src, hits := "cache", 0
	read := func(path string) ([]byte, time.Duration, error) {
		key := manifestKey(meta.Name, path)
		if c != nil {
			if blob, ccost, ok := c.Get(key); ok {
				hits++
				return blob, ccost, nil
			}
		}
		src = "device"
		blob, rc, err := e.fs.Read(path)
		if err == nil && c != nil {
			c.Put(key, blob)
		}
		return blob, rc, err
	}
	m, rc, err := tableobj.LoadManifest(meta.Path, id, memo, read)
	cost += rc
	if err != nil && hits > 0 {
		// Undecodable cached bytes: drop the table's files and read what
		// fs holds.
		c.InvalidatePrefix(manifestPrefix(meta.Name))
		m, rc, err = tableobj.LoadManifest(meta.Path, id, memo, read)
		cost += rc
	}
	if err != nil {
		return nil, src, cost, err
	}
	if m == memo {
		return m, "memo", cost, nil
	}
	st.manifest.Store(m)
	return m, src, cost, nil
}

func (e *Engine) planFileBased(st *tableState, filters []RangeFilter) (Plan, time.Duration, error) {
	// Baseline: list every file under /data, then read each file's
	// footer for statistics. Planning cost and memory both scale with
	// the file count.
	paths, cost := e.fs.List(st.tbl.Meta().Path + "/data/")
	plan := Plan{TotalFiles: len(paths)}
	schema := st.tbl.Schema()
	for _, p := range paths {
		blob, rc, err := e.fs.Read(p)
		if err != nil {
			return plan, cost, err
		}
		cost += rc
		r, err := colfile.Open(blob)
		if err != nil {
			return plan, cost, err
		}
		f := tableobj.DataFile{Path: p, Partition: partitionOf(p), Rows: r.NumRows(), Bytes: int64(len(blob))}
		// Reconstruct file-level stats from the row-group footers.
		for c := 0; c < schema.NumFields(); c++ {
			lo, hi := r.FileRange(c)
			f.Min, f.Max = append(f.Min, lo), append(f.Max, hi)
		}
		plan.admit(schema, f, filters)
	}
	// The whole listing plus every footer passed through compute memory.
	plan.MetadataBytes = int64(len(paths)) * fileMetaBytes * 4
	return plan, cost, nil
}

func partitionOf(path string) string {
	parts := strings.Split(path, "/")
	if len(parts) >= 2 {
		return parts[len(parts)-2]
	}
	return ""
}

// admit routes one file into the plan or the skip count.
func (p *Plan) admit(schema colfile.Schema, f tableobj.DataFile, filters []RangeFilter) {
	if filePrune(schema, f, filters) {
		p.SkippedFiles++
	} else {
		p.Files = append(p.Files, f)
	}
}

// filePrune reports whether the file's value ranges, or its having no
// rows, exclude the filters.
func filePrune(schema colfile.Schema, f tableobj.DataFile, filters []RangeFilter) bool {
	if f.Rows == 0 {
		return true
	}
	for _, flt := range filters {
		if c := schema.FieldIndex(flt.Column); c >= 0 && !f.Overlaps(c, flt.Lo, flt.Hi) {
			return true
		}
	}
	return false
}

// boundFilter is a RangeFilter with its column resolved against the
// table schema, so the per-row and per-group checks index directly.
type boundFilter struct {
	col    int
	lo, hi *colfile.Value
}

// bindFilters resolves the filters' columns once per operation. A
// filter naming no schema column constrains nothing and is dropped.
func bindFilters(schema colfile.Schema, filters []RangeFilter) []boundFilter {
	bound := make([]boundFilter, 0, len(filters))
	for _, flt := range filters {
		if c := schema.FieldIndex(flt.Column); c >= 0 {
			bound = append(bound, boundFilter{col: c, lo: flt.Lo, hi: flt.Hi})
		}
	}
	return bound
}

func rowMatches(row colfile.Row, filters []boundFilter) bool {
	for _, flt := range filters {
		if flt.lo != nil && colfile.Compare(row[flt.col], *flt.lo) < 0 {
			return false
		}
		if flt.hi != nil && colfile.Compare(row[flt.col], *flt.hi) > 0 {
			return false
		}
	}
	return true
}

// Scan is ScanProjected over every column, untraced.
func (e *Engine) Scan(name string, plan Plan, filters []RangeFilter, fn func(colfile.Row) bool) (ScanStats, time.Duration, error) {
	return e.ScanProjected(name, plan, filters, nil, nil, fn)
}

// ScanProjected reads the planned files and streams matching rows to
// fn, skipping row groups whose statistics exclude the filters (data
// skipping within the file) and returning the modelled read latency
// plus the bytes actually read vs skipped. The row passed to fn is a
// reused buffer, valid only for the duration of the callback: retain a
// copy, not the row itself.
//
// columns names the columns fn reads; nil means all of them. Only
// those and the filter columns are decoded: the row keeps the schema's
// width and positions, and every other cell is the zero Value. With no
// column to decode (a bare count(*)) rows are counted from the footers.
// Projection saves decode work only: a file is still read whole, so
// the modelled latency and the byte figures do not depend on it.
// The scan is a lakehouse.scan child of sp (files, groups read and
// skipped, rows) over a tableobj.read child per file read, with its
// bytes and src (cache or device). A nil sp traces nothing.
func (e *Engine) ScanProjected(name string, plan Plan, filters []RangeFilter, columns []string, sp *obs.Span, fn func(colfile.Row) bool) (ScanStats, time.Duration, error) {
	st, err := e.state(name)
	if err != nil {
		return ScanStats{}, 0, err
	}
	schema := st.tbl.Schema()
	bound := bindFilters(schema, filters)
	need := make([]bool, schema.NumFields())
	for _, flt := range bound {
		need[flt.col] = true
	}
	for _, col := range columns {
		c := schema.FieldIndex(col)
		if c < 0 {
			return ScanStats{}, 0, errors.New("lakehouse: unknown column " + col)
		}
		need[c] = true
	}
	proj := make([]int, 0, len(need)) // non-nil even when empty: nil would read every column
	for c := range need {
		if need[c] || columns == nil {
			proj = append(proj, c)
		}
	}
	var stats ScanStats
	var cost time.Duration
	var files, groups int
	e.mu.Lock()
	m := e.metrics
	e.mu.Unlock()
	ssp := sp.Child("lakehouse.scan")
	defer func() {
		m.scans.Inc()
		m.rowsScanned.Add(stats.RowsScanned)
		m.readBytes.Add(stats.ReadBytes)
		m.skippedBytes.Add(stats.SkippedBytes)
		m.scanLat.Observe(cost)
		if ssp != nil {
			ssp.SetAttr("files", strconv.Itoa(files))
			ssp.SetAttr("groups", strconv.Itoa(groups))
			ssp.SetAttr("skipped", strconv.Itoa(stats.SkippedGroups))
			ssp.SetAttr("rows", strconv.FormatInt(stats.RowsScanned, 10))
			ssp.End(cost)
			sp.Advance(cost)
		}
	}()
	row := make(colfile.Row, len(need)) // reused across rows; fn must not retain it
	// The decode buffers, reused across every group of every file, are
	// sized once for the largest group the plan's row counts allow.
	var most int64
	for _, f := range plan.Files {
		most = max(most, min(f.Rows, colfile.DefaultRowGroupSize))
	}
	cols := make([]colfile.Column, len(proj))
	for k, c := range proj {
		cols[k] = colfile.MakeColumn(schema.Fields[c].Type, int(most))
	}
	var r colfile.Reader // every file's footer parses into its storage
	for _, f := range plan.Files {
		blob, rc, err := e.fs.ReadSpan(f.Path, ssp)
		if err != nil {
			return stats, cost, err
		}
		cost += rc
		files++
		if err := r.Reset(blob); err != nil {
			return stats, cost, err
		}
		for g := 0; g < r.NumRowGroups(); g++ {
			if !groupMatches(&r, g, bound) {
				stats.SkippedBytes += r.GroupBytes(g)
				stats.SkippedGroups++
				continue
			}
			stats.ReadBytes += r.GroupBytes(g)
			groups++
			if cols, err = r.ReadColumns(g, proj, cols); err != nil {
				return stats, cost, err
			}
			for i := 0; i < r.GroupRows(g); i++ {
				for k, c := range proj {
					row[c] = cols[k].Value(i)
				}
				stats.RowsScanned++
				if rowMatches(row, bound) {
					stats.RowsMatched++
					if !fn(row) {
						return stats, cost, nil
					}
				}
			}
		}
	}
	return stats, cost, nil
}

func groupMatches(r *colfile.Reader, g int, filters []boundFilter) bool {
	for _, flt := range filters {
		if !r.GroupStats(g, flt.col).Overlaps(flt.lo, flt.hi) {
			return false
		}
	}
	return true
}

// ScanStats accounts a scan's work.
type ScanStats struct {
	RowsScanned   int64
	RowsMatched   int64
	ReadBytes     int64
	SkippedBytes  int64
	SkippedGroups int
}

// AggregateResult is one group of an aggregation: its row count and
// the sum of each summed column, in the order the columns were named.
type AggregateResult struct {
	Group string
	Count int64
	Sums  []float64
}

// Fold groups rows into AggregateResults: COUNT(*) and one SUM per sum
// column, by the group column's value. It is the one place rows are
// aggregated: at the storage side in AggregatePushdown, and at the
// compute side when a query ships its rows first.
type Fold struct {
	group  int   // the group column's index, -1 for one group
	sums   []int // the sum columns' indexes
	groups map[string]*AggregateResult
	last   *AggregateResult // the group of the last row added
}

// NewFold is a fold over schema's rows, grouped by groupColumn ("" for
// one group), summing sumColumns.
func NewFold(schema colfile.Schema, groupColumn string, sumColumns []string) (*Fold, error) {
	f := &Fold{group: -1, groups: map[string]*AggregateResult{}}
	if groupColumn != "" {
		if f.group = schema.FieldIndex(groupColumn); f.group < 0 {
			return nil, errors.New("lakehouse: unknown column " + groupColumn)
		}
	}
	for _, col := range sumColumns {
		c := schema.FieldIndex(col)
		if c < 0 {
			return nil, errors.New("lakehouse: unknown column " + col)
		}
		f.sums = append(f.sums, c)
	}
	return f, nil
}

// Add folds one row into its group.
func (f *Fold) Add(row colfile.Row) {
	key := ""
	if f.group >= 0 {
		key = row[f.group].String()
	}
	// Rows come file by file, and a partitioned table's file holds one
	// partition, so the last row's group is mostly the next row's.
	g := f.last
	if g == nil || g.Group != key {
		if g = f.groups[key]; g == nil {
			g = &AggregateResult{Group: key, Sums: make([]float64, len(f.sums))}
			f.groups[key] = g
		}
		f.last = g
	}
	g.Count++
	for k, c := range f.sums {
		g.Sums[k] += float64(row[c].Int) + row[c].Float // a value of one type leaves the other field 0
	}
}

// Results returns the groups in key order. An ungrouped fold has its
// one group even over no rows, with a Count of 0, as SQL answers an
// aggregate without GROUP BY.
func (f *Fold) Results() []AggregateResult {
	if f.group < 0 && len(f.groups) == 0 {
		return []AggregateResult{{Sums: make([]float64, len(f.sums))}}
	}
	out := make([]AggregateResult, 0, len(f.groups))
	for _, g := range f.groups {
		out = append(out, *g)
	}
	slices.SortFunc(out, func(a, b AggregateResult) int { return strings.Compare(a.Group, b.Group) })
	return out
}

// QueryStats accounts one Query: its plan and its scan, each with its
// virtual cost.
type QueryStats struct {
	Plan               Plan
	Scan               ScanStats
	PlanCost, ScanCost time.Duration
}

// Query plans a filtered scan as PlanScan does, recording it under sp,
// but without decoding the statistics of a file the manifest admits:
// the scan reads only its path. check, when not nil, sees the plan
// before any file is read, and an error from it ends the query. Then
// ScanProjected reads what the plan admits, under scanFilters.
func (e *Engine) Query(name string, filters, scanFilters []RangeFilter, columns []string, sp *obs.Span, check func(Plan) error, fn func(colfile.Row) bool) (qs QueryStats, err error) {
	if qs.Plan, qs.PlanCost, err = e.plan(name, 0, filters, sp, false); err == nil && check != nil {
		err = check(qs.Plan)
	}
	if err == nil {
		qs.Scan, qs.ScanCost, err = e.ScanProjected(name, qs.Plan, scanFilters, columns, sp, fn)
	}
	return qs, err
}

// AggregatePushdown folds the rows that match filters, and keep when
// it is not nil, into groups by groupColumn with a SUM of each of
// sumColumns, entirely at the storage side — the computation pushdown
// that keeps the Figure 13 DAU query from shipping raw rows to the
// compute engine — through Query, which records it under sp. keep is
// the exact predicate for what a closed range cannot say (a strict
// bound on a float or a string); the range still prunes. keep sees
// the filter, group and sum columns only.
func (e *Engine) AggregatePushdown(name string, filters []RangeFilter, groupColumn string, sumColumns []string, keep func(colfile.Row) bool, sp *obs.Span) ([]AggregateResult, QueryStats, error) {
	st, err := e.state(name)
	if err != nil {
		return nil, QueryStats{}, err
	}
	fold, err := NewFold(st.tbl.Schema(), groupColumn, sumColumns)
	if err != nil {
		return nil, QueryStats{}, err
	}
	columns := append([]string{}, sumColumns...) // non-nil: nil decodes every column
	if groupColumn != "" {
		columns = append(columns, groupColumn)
	}
	qs, err := e.Query(name, filters, filters, columns, sp, nil, func(row colfile.Row) bool {
		if keep == nil || keep(row) {
			fold.Add(row)
		}
		return true
	})
	if err != nil {
		return nil, qs, err
	}
	return fold.Results(), qs, nil
}
