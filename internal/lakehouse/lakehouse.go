// Package lakehouse implements StreamLake's lakehouse read/write
// operations (Section V-B, Figure 9): CREATE TABLE, INSERT, SELECT,
// DELETE, UPDATE and DROP over table objects, with the metadata
// acceleration the paper highlights — a key-value write cache that
// combines the many small metadata I/Os of streaming ingestion, an
// asynchronous MetaFresher that folds cached commit records into
// persistent snapshot files, and O(1) cached metadata lookups at query
// planning time in place of the file-based catalog's linear directory
// listing (the comparison of Figure 15).
package lakehouse

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"streamlake/internal/cache"
	"streamlake/internal/colfile"
	"streamlake/internal/kv"
	"streamlake/internal/obs"
	"streamlake/internal/sim"
	"streamlake/internal/tableobj"
)

// Options configures an Engine.
type Options struct {
	// Acceleration enables cached planning from the snapshot manifest
	// and the write cache. Disabled, planning behaves like a file-based
	// catalog system, listing the data directory and opening every
	// file's footer — the baseline of Figure 15. Inserts take the write
	// cache either way.
	Acceleration bool
	// FlushEvery is the write-cache capacity in commit records: the
	// MetaFresher folds the cache into persistent metadata when it
	// fills. Zero means 64.
	FlushEvery int
}

// Engine executes lakehouse operations over a file store and catalog.
type Engine struct {
	clock *sim.Clock
	fs    *tableobj.FileStore
	cat   *tableobj.Catalog
	opts  Options
	cache *kv.DB // metadata write cache on SCM

	mu      sync.Mutex
	tables  map[string]*tableState
	metrics scanMetrics
	// rcache is the shared two-tier read cache, when one is attached:
	// metadata files are served from it at query-planning time keyed
	// by path (immutable by path, so never stale in content), and DML
	// commits invalidate the table's prefix.
	rcache *cache.Cache
}

// SetCache attaches the shared read cache used for snapshot-manifest
// lookups at planning time (nil detaches it).
func (e *Engine) SetCache(c *cache.Cache) {
	e.mu.Lock()
	e.rcache = c
	e.mu.Unlock()
}

func manifestPrefix(name string) string { return "manifest/" + name + "/" }

// manifestKey is the read-cache key of one of the table's metadata
// files.
func manifestKey(name, path string) string { return manifestPrefix(name) + path }

// invalidateManifests drops the table's cached metadata files after a
// commit moved the snapshot pointer. Metadata files are immutable by
// path, so this is hygiene (reclaiming dead entries), not a correctness
// edge.
func (e *Engine) invalidateManifests(name string) {
	e.mu.Lock()
	c := e.rcache
	e.mu.Unlock()
	if c != nil {
		c.InvalidatePrefix(manifestPrefix(name))
	}
}

type tableState struct {
	tbl *tableobj.Table
	// pending commit records in the write cache, not yet folded into a
	// persistent snapshot by the MetaFresher.
	pendingAdds []tableobj.DataFile
	cacheSeq    int64
	// flushMu runs one flush at a time: a DML's barrier flush returns
	// only once the records another flush took are committed.
	flushMu sync.Mutex
	// manifest is the last snapshot planning decoded (Engine.manifest).
	manifest atomic.Pointer[tableobj.Manifest]
}

// New builds an engine.
func New(clock *sim.Clock, fs *tableobj.FileStore, cat *tableobj.Catalog, opts Options) *Engine {
	if opts.FlushEvery <= 0 {
		opts.FlushEvery = 64
	}
	return &Engine{
		clock:  clock,
		fs:     fs,
		cat:    cat,
		opts:   opts,
		cache:  kv.Open(sim.NewDeviceOf("meta-cache-scm", sim.SCM)),
		tables: make(map[string]*tableState),
	}
}

// CreateTable registers a table and its directories (CREATE TABLE).
func (e *Engine) CreateTable(meta tableobj.TableMeta) (time.Duration, error) {
	tbl, cost, err := tableobj.Create(e.clock, e.fs, e.cat, meta)
	if err != nil {
		return cost, err
	}
	e.mu.Lock()
	e.tables[meta.Name] = &tableState{tbl: tbl}
	e.mu.Unlock()
	return cost, nil
}

func (e *Engine) state(name string) (*tableState, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if st, ok := e.tables[name]; ok {
		return st, nil
	}
	tbl, err := tableobj.Open(e.clock, e.fs, e.cat, name)
	if err != nil {
		return nil, err
	}
	st := &tableState{tbl: tbl}
	e.tables[name] = st
	return st, nil
}

// Table exposes the underlying table object.
func (e *Engine) Table(name string) (*tableobj.Table, error) {
	st, err := e.state(name)
	if err != nil {
		return nil, err
	}
	return st.tbl, nil
}

// Insert writes rows (split by partition) as data files and records
// their commit metadata through the write cache (Figure 9 steps
// b-1..b-3).
func (e *Engine) Insert(name string, rows []colfile.Row) (time.Duration, error) {
	return e.InsertSpan(name, rows, nil)
}

// InsertSpan is Insert recording a tableobj.write child of sp, the
// caller's insert span, per data file. The caller ends sp with the
// returned cost. A nil sp traces nothing.
func (e *Engine) InsertSpan(name string, rows []colfile.Row, sp *obs.Span) (time.Duration, error) {
	if len(rows) == 0 {
		return 0, errors.New("lakehouse: insert with no rows")
	}
	st, err := e.state(name)
	if err != nil {
		return 0, err
	}
	// (a) Data persistence: records go straight to columnar files in the
	// partition paths.
	x, err := st.tbl.Stage()
	if err != nil {
		return x.Cost(), err
	}
	files, err := writeRows(x, st.tbl, rows, sp)
	if err != nil {
		x.Abort() // withdraw the files already written
		return x.Cost(), err
	}

	// (b) Metadata caching: commit records become key-value pairs in the
	// SCM write cache; the transaction's metadata write is deferred.
	cost := x.Cost()
	e.mu.Lock()
	for _, f := range files {
		st.cacheSeq++
		key := fmt.Sprintf("wcache/%s/%012d", name, st.cacheSeq)
		cost += e.cache.Put([]byte(key), encodeCachedFile(f))
		st.pendingAdds = append(st.pendingAdds, f)
	}
	pending := len(st.pendingAdds)
	e.mu.Unlock()

	// (c) Metadata persistence: MetaFresher flushes when the buffer is
	// full.
	if pending >= e.opts.FlushEvery {
		c, err := e.Flush(name)
		return cost + c, err
	}
	return cost, nil
}

func encodeCachedFile(f tableobj.DataFile) []byte {
	var out []byte
	out = binary.AppendUvarint(out, uint64(len(f.Path)))
	out = append(out, f.Path...)
	out = binary.AppendVarint(out, f.Rows)
	out = binary.AppendVarint(out, f.Bytes)
	return out
}

// Flush is the MetaFresher: it transforms the cached commit records into
// commit and snapshot files in the table's /metadata directory as one
// batched transaction.
func (e *Engine) Flush(name string) (time.Duration, error) { return e.FlushSpan(name, nil) }

// FlushSpan is Flush recording under sp, the caller's lakehouse.flush
// span: how many files it commits, and the transaction's tableobj.commit
// child (Table.Write). The caller ends sp with the returned cost. A nil
// sp traces nothing.
func (e *Engine) FlushSpan(name string, sp *obs.Span) (time.Duration, error) {
	st, err := e.state(name)
	if err != nil {
		return 0, err
	}
	st.flushMu.Lock()
	defer st.flushMu.Unlock()
	// The records stay cached, at its head, until their commit lands: a
	// plan meanwhile finds them there or in the snapshot (planAccelerated).
	e.mu.Lock()
	adds := st.pendingAdds
	e.mu.Unlock()
	sp.SetAttr("files", strconv.Itoa(len(adds)))
	if len(adds) == 0 {
		return 0, nil
	}
	_, cost, err := st.tbl.Write(sp, func(x *tableobj.Txn) error {
		for _, f := range adds {
			x.AddFile(f)
		}
		return nil
	})
	if err != nil {
		return cost, err // the records, whose files Abort left, stay cached
	}
	e.mu.Lock()
	st.pendingAdds = st.pendingAdds[min(len(adds), len(st.pendingAdds)):] // DropHard may have cleared it
	e.mu.Unlock()
	// Clear the flushed entries from the write cache, and drop cached
	// manifests now pointing at a superseded snapshot.
	e.cache.Scan([]byte("wcache/"+name+"/"), []byte("wcache/"+name+"0"), func(k, v []byte) bool {
		e.cache.Delete(k)
		return true
	})
	e.invalidateManifests(name)
	return cost, nil
}
