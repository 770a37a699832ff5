package lakehouse

import (
	"time"

	"streamlake/internal/colfile"
	"streamlake/internal/obs"
	"streamlake/internal/tableobj"
)

// Delete removes rows matching the filters (DELETE in Section V-B).
// Files whose every row matches are dropped by a metadata-only commit;
// partially matching files are read, filtered and rewritten, with the
// file I/O kept at the storage side (pushdown). It returns how many rows
// were deleted.
func (e *Engine) Delete(name string, filters []RangeFilter) (int64, time.Duration, error) {
	return e.rewrite(name, filters, func(x *tableobj.Txn, tbl *tableobj.Table, f tableobj.DataFile, read func() ([]colfile.Row, error)) (int64, error) {
		if fileFullyCovered(tbl.Schema(), f, filters) {
			// Case 1: the whole file matches — metadata-only removal.
			x.RemoveFile(f)
			return f.Rows, nil
		}
		// Case 2: partial match — rewrite the survivors.
		rows, err := read()
		if err != nil {
			return 0, err
		}
		bound := bindFilters(tbl.Schema(), filters)
		keep := rows[:0]
		for _, row := range rows {
			if !rowMatches(row, bound) {
				keep = append(keep, row)
			}
		}
		x.RemoveFile(f)
		_, err = writeRows(x, tbl, keep, nil)
		return int64(len(rows) - len(keep)), err
	})
}

// fileFullyCovered reports whether every row of f is guaranteed to match
// the filters: each filter's bounds contain the file's whole value range
// for that column.
func fileFullyCovered(schema colfile.Schema, f tableobj.DataFile, filters []RangeFilter) bool {
	for _, flt := range filters {
		c := schema.FieldIndex(flt.Column)
		if c < 0 || c >= len(f.Min) {
			return false
		}
		if flt.Lo != nil && colfile.Compare(f.Min[c], *flt.Lo) < 0 {
			return false
		}
		if flt.Hi != nil && colfile.Compare(f.Max[c], *flt.Hi) > 0 {
			return false
		}
	}
	return true
}

// Update rewrites rows matching the filters through set (UPDATE in
// Section V-B), using the same select-then-rewrite path as Delete with
// pushdown on the file I/O. Rows that set moves to another partition
// are written to that partition's directory. It returns how many rows
// were updated.
func (e *Engine) Update(name string, filters []RangeFilter, set func(colfile.Row) colfile.Row) (int64, time.Duration, error) {
	return e.rewrite(name, filters, func(x *tableobj.Txn, tbl *tableobj.Table, f tableobj.DataFile, read func() ([]colfile.Row, error)) (int64, error) {
		rows, err := read()
		if err != nil {
			return 0, err
		}
		schema, bound, updated := tbl.Schema(), bindFilters(tbl.Schema(), filters), int64(0)
		for i, row := range rows {
			if !rowMatches(row, bound) {
				continue
			}
			rows[i] = set(row)
			if err := schema.Validate(rows[i]); err != nil {
				return 0, err
			}
			updated++
		}
		if updated == 0 {
			return 0, nil
		}
		x.RemoveFile(f) // set may move rows to other partitions
		_, err = writeRows(x, tbl, rows, nil)
		return updated, err
	})
}

// rewrite flushes the write cache (DML is a barrier) and, in one
// Table.Write, plans filters on the transaction's base and has fn stage
// each planned file's removal and rewrite and count its changed rows;
// read decodes the file, its rows valid until the next read. The count
// is the committed attempt's.
func (e *Engine) rewrite(name string, filters []RangeFilter, fn func(x *tableobj.Txn, tbl *tableobj.Table, f tableobj.DataFile, read func() ([]colfile.Row, error)) (int64, error)) (int64, time.Duration, error) {
	st, err := e.state(name)
	if err != nil {
		return 0, 0, err
	}
	cost, err := e.Flush(name)
	if err != nil {
		return 0, cost, err
	}
	var r colfile.Reader
	var dec colfile.RowDecoder
	var rows []colfile.Row
	var f tableobj.DataFile
	read := func() ([]colfile.Row, error) {
		blob, rc, err := e.fs.Read(f.Path)
		cost += rc
		if err == nil {
			err = r.Reset(blob)
		}
		if err != nil {
			return nil, err
		}
		dec.Recycle() // the last file's rows are written
		rows, err = dec.AppendRows(rows[:0], &r)
		return rows, err
	}
	var n int64
	_, wc, err := st.tbl.Write(nil, func(x *tableobj.Txn) error {
		plan, pc, err := e.plan(name, x.BaseID(), filters, nil, true)
		cost += pc
		if err != nil {
			return err
		}
		n = 0
		for _, f = range plan.Files {
			c, err := fn(x, st.tbl, f, read)
			if err != nil {
				return err
			}
			n += c
		}
		return nil
	})
	cost += wc
	if err == nil {
		e.invalidateManifests(name)
	}
	return n, cost, err
}

// writeRows writes rows into x through a sink of tbl: a data file per
// partition, in sorted partition order, and none for no rows. Each
// file's write is a tableobj.write child of sp.
func writeRows(x *tableobj.Txn, tbl *tableobj.Table, rows []colfile.Row, sp *obs.Span) ([]tableobj.DataFile, error) {
	sink := tbl.Sink()
	for _, r := range rows {
		if err := sink.Append(r); err != nil {
			return nil, err
		}
	}
	return sink.Stage(x, sp)
}

// DropSoft unregisters a table, retaining data for restoration. The
// engine's cached handle is evicted so subsequent operations fail with
// ErrTableDropped until a Restore.
func (e *Engine) DropSoft(name string) (time.Duration, error) {
	st, err := e.state(name)
	if err != nil {
		return 0, err
	}
	cost, err := e.Flush(name)
	if err != nil {
		return cost, err
	}
	c, err := st.tbl.DropSoft()
	if err == nil {
		e.mu.Lock()
		delete(e.tables, name)
		e.mu.Unlock()
	}
	return cost + c, err
}

// Restore re-registers a soft-dropped table.
func (e *Engine) Restore(name string) (time.Duration, error) {
	return e.cat.Restore(name)
}

// DropHard removes the table's data and metadata. Per the paper's note,
// metadata still sitting in the acceleration cache is cleared from the
// cache first, then the persistent files are deleted.
func (e *Engine) DropHard(name string) (time.Duration, error) {
	st, err := e.state(name)
	if err != nil {
		return 0, err
	}
	var cost time.Duration
	// (1) Clear the write cache.
	e.mu.Lock()
	st.pendingAdds = nil
	e.mu.Unlock()
	e.cache.Scan([]byte("wcache/"+name+"/"), []byte("wcache/"+name+"0"), func(k, v []byte) bool {
		cost += e.cache.Delete(k)
		return true
	})
	// (2) Delete from disk and the catalog.
	c, err := st.tbl.DropHard()
	cost += c
	if err != nil {
		return cost, err
	}
	e.mu.Lock()
	delete(e.tables, name)
	e.mu.Unlock()
	e.invalidateManifests(name)
	return cost, nil
}
