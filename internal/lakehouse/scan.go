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
	zonePruned   *obs.Counter
	bloomPruned  *obs.Counter
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
		zonePruned:   reg.Counter("lakehouse_zone_pruned_files_total"),
		bloomPruned:  reg.Counter("lakehouse_bloom_pruned_files_total"),
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
	// ZonePrunedFiles counts the SkippedFiles subset pruned only by zone
	// maps: the file-level range overlapped the predicate but no single
	// row group's did.
	ZonePrunedFiles int
	// BloomPrunedFiles counts the SkippedFiles subset pruned only by a
	// bloom filter on an equality predicate.
	BloomPrunedFiles int
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
		m.zonePruned.Add(int64(plan.ZonePrunedFiles))
		m.bloomPruned.Add(int64(plan.BloomPrunedFiles))
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
	for _, ent := range m.Entries {
		if cached[ent.Path] {
			cached[ent.Path] = false
			plan.TotalFiles--
		}
		if rangeRejects(ent, bound) {
			plan.SkippedFiles++
			continue
		}
		// Past rangeRejects, only an extended entry's zones and blooms can
		// still prune it: any other admits as its bare DataFile.
		f := tableobj.DataFile{Path: ent.Path, Partition: ent.Partition, Rows: ent.Rows, Bytes: ent.Bytes}
		var err error
		if decode || ent.Extended() && len(bound) > 0 {
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
		plan.admit(schema, f, filters)
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

// rangeRejects reports whether the entry's encoded ranges earn it
// filePrune's verdict, pruneRange. On extended stats a filter whose
// range overlaps may zone- or bloom-prune, so no later filter may.
func rangeRejects(ent tableobj.ManifestEntry, filters []boundFilter) bool {
	for _, flt := range filters {
		if !ent.Overlaps(flt.col, flt.lo, flt.hi) {
			return true
		}
		if ent.Extended() {
			return false
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
		if id, cost, err = e.cat.SnapshotPointer(meta.Name); err != nil {
			return nil, "", cost, err
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
			var lo, hi colfile.Value
			for g := 0; g < r.NumRowGroups(); g++ {
				gs := r.GroupStats(g, c)
				if g == 0 || colfile.Compare(gs.Min, lo) < 0 {
					lo = gs.Min
				}
				if g == 0 || colfile.Compare(gs.Max, hi) > 0 {
					hi = gs.Max
				}
			}
			f.Min = append(f.Min, lo)
			f.Max = append(f.Max, hi)
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

// admit routes one file into the plan or the skip counters, attributing
// zone-map and bloom prunes separately from file-level range prunes.
func (p *Plan) admit(schema colfile.Schema, f tableobj.DataFile, filters []RangeFilter) {
	switch filePrune(schema, f, filters) {
	case pruneNone:
		p.Files = append(p.Files, f)
	case pruneRange:
		p.SkippedFiles++
	case pruneZone:
		p.SkippedFiles++
		p.ZonePrunedFiles++
	case pruneBloom:
		p.SkippedFiles++
		p.BloomPrunedFiles++
	}
}

type pruneReason int

const (
	pruneNone  pruneReason = iota
	pruneRange             // file-level min/max (or an empty file) excludes the predicate
	pruneZone              // file range overlaps, but no row group's range does
	pruneBloom             // ranges overlap, but the bloom filter rules out an equality probe
)

// filePrune decides whether the file's statistics exclude the filters,
// consulting (in escalating precision) the file-level value ranges, the
// per-row-group zone maps, and the per-column bloom filters for
// equality predicates. Files written without zone maps carry neither
// zones nor blooms and behave exactly as before.
func filePrune(schema colfile.Schema, f tableobj.DataFile, filters []RangeFilter) pruneReason {
	if f.Rows == 0 {
		return pruneRange
	}
	for _, flt := range filters {
		c := schema.FieldIndex(flt.Column)
		if c < 0 {
			continue
		}
		if !f.Overlaps(c, flt.Lo, flt.Hi) {
			return pruneRange
		}
		if len(f.Zones) > 0 && !zonesOverlap(f.Zones, c, flt.Lo, flt.Hi) {
			return pruneZone
		}
		if flt.Lo != nil && flt.Hi != nil && colfile.Compare(*flt.Lo, *flt.Hi) == 0 &&
			c < len(f.Blooms) && !f.Blooms[c].MayContain(*flt.Lo) {
			return pruneBloom
		}
	}
	return pruneNone
}

// zonesOverlap reports whether any row group's range for column c can
// intersect [lo, hi].
func zonesOverlap(zones []tableobj.ZoneMap, c int, lo, hi *colfile.Value) bool {
	for _, z := range zones {
		if (tableobj.DataFile{Min: z.Min, Max: z.Max}).Overlaps(c, lo, hi) {
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
// bytes. A nil sp traces nothing.
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
	cols := make([][]colfile.Value, len(proj))
	for k := range cols {
		cols[k] = make([]colfile.Value, 0, most)
	}
	var r colfile.Reader // every file's footer parses into its storage
	for _, f := range plan.Files {
		blob, rc, err := e.fs.Read(f.Path)
		if ssp != nil {
			rsp := ssp.Child("tableobj.read")
			rsp.SetAttr("bytes", strconv.Itoa(len(blob)))
			rsp.End(rc)
			ssp.Advance(rc)
		}
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
			if cols, err = r.ReadGroupInto(g, proj, cols); err != nil {
				return stats, cost, err
			}
			for i := 0; i < r.GroupRows(g); i++ {
				for k, c := range proj {
					row[c] = cols[k][i]
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

// AggregateResult is one group of a pushed-down aggregation.
type AggregateResult struct {
	Group string
	Count int64
	Sum   float64
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

// AggregatePushdown runs COUNT (and SUM of sumColumn, when non-empty)
// grouped by groupColumn entirely at the storage side — the computation
// pushdown that keeps the Figure 13 DAU query from shipping raw rows to
// the compute engine — through Query, which records it under sp.
func (e *Engine) AggregatePushdown(name string, filters []RangeFilter, groupColumn, sumColumn string, sp *obs.Span) ([]AggregateResult, QueryStats, error) {
	st, err := e.state(name)
	if err != nil {
		return nil, QueryStats{}, err
	}
	schema := st.tbl.Schema()
	gi := schema.FieldIndex(groupColumn)
	si := schema.FieldIndex(sumColumn)
	columns := []string{}
	for _, col := range []string{groupColumn, sumColumn} {
		if col != "" {
			columns = append(columns, col)
		}
	}
	groups := map[string]*AggregateResult{}
	qs, err := e.Query(name, filters, filters, columns, sp, nil, func(row colfile.Row) bool {
		key := ""
		if gi >= 0 {
			key = row[gi].String()
		}
		g := groups[key]
		if g == nil {
			g = &AggregateResult{Group: key}
			groups[key] = g
		}
		g.Count++
		if si >= 0 {
			switch row[si].Type {
			case colfile.Int64:
				g.Sum += float64(row[si].Int)
			case colfile.Float64:
				g.Sum += row[si].Float
			}
		}
		return true
	})
	if err != nil {
		return nil, qs, err
	}
	out := make([]AggregateResult, 0, len(groups))
	for _, g := range groups {
		out = append(out, *g)
	}
	slices.SortFunc(out, func(a, b AggregateResult) int { return strings.Compare(a.Group, b.Group) })
	return out, qs, nil
}
