// Package kv is the embedded key-value engine StreamLake leans on in
// four places the paper calls out: the record-lookup indexes for PLogs
// (Section IV-A), the stream dispatcher's fault-tolerant topology store
// (Section V-A), the table catalog "stored in a distributed key-value
// engine optimized for RDMA and SCM" (Section IV-B), and the metadata
// write cache behind the lakehouse's metadata acceleration (Section V-B).
//
// It is a single-node log-structured engine: writes land in a
// WAL-protected memtable (skip list) and flush to immutable sorted runs;
// reads merge memtable and runs newest-first; range scans use a k-way
// merge. Every operation charges its modelled cost to a backing device,
// so a catalog on SCM is measurably faster than one on HDD — the effect
// Figure 15 measures.
package kv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"streamlake/internal/sim"
)

type entry struct {
	key   []byte
	value []byte
	tomb  bool
}

// run is an immutable sorted array of entries, the engine's SSTable
// analogue.
type run struct {
	entries []entry
	bytes   int64
}

func (r *run) get(key []byte) (value []byte, tomb, found bool) {
	i := sort.Search(len(r.entries), func(i int) bool {
		return bytes.Compare(r.entries[i].key, key) >= 0
	})
	if i < len(r.entries) && bytes.Equal(r.entries[i].key, key) {
		e := r.entries[i]
		return e.value, e.tomb, true
	}
	return nil, false, false
}

// Options configures a DB.
type Options struct {
	// Device receives the modelled I/O charges (WAL appends, run reads).
	// Nil means a pure in-memory store with zero cost, used for tests.
	Device *sim.Device
	// MemtableBytes triggers an automatic flush once the active memtable
	// exceeds it. Zero means 4 MiB.
	MemtableBytes int64
	// Seed seeds the skiplist's level generator.
	Seed uint64
}

// DB is the key-value engine. The zero value is not usable; call Open.
type DB struct {
	opts Options

	mu   sync.RWMutex
	mem  *skiplist
	runs []*run // newest first
	wal  int64  // bytes appended to the WAL since the last flush
	puts int64
	gets atomic.Int64 // atomic: bumped under the shared read lock
}

// ErrCASMismatch is returned by CompareAndSwap when the current value
// does not match the expected one.
var ErrCASMismatch = errors.New("kv: compare-and-swap mismatch")

// Open creates a DB with the given options.
func Open(opts Options) *DB {
	if opts.MemtableBytes <= 0 {
		opts.MemtableBytes = 4 << 20
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	return &DB{opts: opts, mem: newSkiplist(opts.Seed)}
}

func (db *DB) charge(write bool, n int64) time.Duration {
	if db.opts.Device == nil {
		return 0
	}
	if write {
		return db.opts.Device.Write(n)
	}
	return db.opts.Device.Read(n)
}

// Put stores key=value, returning the modelled WAL latency.
func (db *DB) Put(key, value []byte) (time.Duration, error) {
	k := append([]byte(nil), key...)
	v := append([]byte(nil), value...)
	db.mu.Lock()
	db.mem.put(k, v, false)
	db.wal += int64(len(k) + len(v))
	db.puts++
	needFlush := db.mem.bytes > db.opts.MemtableBytes
	db.mu.Unlock()
	cost := db.charge(true, int64(len(k)+len(v)))
	if needFlush {
		db.Flush()
	}
	return cost, nil
}

// Delete removes key (writing a tombstone) and returns the WAL latency.
func (db *DB) Delete(key []byte) (time.Duration, error) {
	k := append([]byte(nil), key...)
	db.mu.Lock()
	db.mem.put(k, nil, true)
	db.wal += int64(len(k) + 1)
	db.mu.Unlock()
	return db.charge(true, int64(len(k)+1)), nil
}

// Get returns the value for key. The modelled cost is one device read of
// the entry when it is served from a flushed run, zero from the memtable
// (RAM), which is what makes the metadata cache's O(1) lookups cheap.
func (db *DB) Get(key []byte) (value []byte, cost time.Duration, ok bool) {
	db.mu.RLock()
	db.gets.Add(1)
	if v, tomb, found := db.mem.get(key); found {
		db.mu.RUnlock()
		if tomb {
			return nil, 0, false
		}
		return v, 0, true
	}
	runs := db.runs
	db.mu.RUnlock()
	for _, r := range runs {
		if v, tomb, found := r.get(key); found {
			cost = db.charge(false, int64(len(key)+len(v)))
			if tomb {
				return nil, cost, false
			}
			return v, cost, true
		}
	}
	return nil, cost, false
}

// CompareAndSwap atomically replaces key's value with next if the current
// value equals expect (nil expect means "key absent"). It returns
// ErrCASMismatch otherwise. This is the catalog-pointer primitive that
// the table object's optimistic concurrency control publishes commits
// through.
func (db *DB) CompareAndSwap(key, expect, next []byte) (time.Duration, error) {
	db.mu.Lock()
	cur, tomb, found := db.mem.get(key)
	if !found {
		for _, r := range db.runs {
			if v, tb, f := r.get(key); f {
				cur, tomb, found = v, tb, true
				break
			}
		}
	}
	if tomb {
		found = false
	}
	if found != (expect != nil) || (found && !bytes.Equal(cur, expect)) {
		db.mu.Unlock()
		return 0, ErrCASMismatch
	}
	k := append([]byte(nil), key...)
	v := append([]byte(nil), next...)
	db.mem.put(k, v, false)
	db.wal += int64(len(k) + len(v))
	db.mu.Unlock()
	return db.charge(true, int64(len(k)+len(v))), nil
}

// Scan calls fn for each live key in [start, end) in order, merging
// memtable and runs; fn returning false stops the scan. A nil end scans
// to the last key.
func (db *DB) Scan(start, end []byte, fn func(key, value []byte) bool) time.Duration {
	db.mu.RLock()
	sources := make([][]entry, 0, len(db.runs)+1)
	memEntries := collectRange(db.mem, start, end)
	sources = append(sources, memEntries)
	for _, r := range db.runs {
		sources = append(sources, sliceRange(r.entries, start, end))
	}
	db.mu.RUnlock()

	var scanned int64
	merged := mergeEntries(sources)
	for _, e := range merged {
		scanned += int64(len(e.key) + len(e.value))
		if e.tomb {
			continue
		}
		if !fn(e.key, e.value) {
			break
		}
	}
	return db.charge(false, scanned)
}

func collectRange(s *skiplist, start, end []byte) []entry {
	var out []entry
	for x := s.seek(start); x != nil; x = x.next[0] {
		if end != nil && bytes.Compare(x.key, end) >= 0 {
			break
		}
		out = append(out, entry{key: x.key, value: x.value, tomb: x.tomb})
	}
	return out
}

func sliceRange(es []entry, start, end []byte) []entry {
	lo := sort.Search(len(es), func(i int) bool {
		return bytes.Compare(es[i].key, start) >= 0
	})
	hi := len(es)
	if end != nil {
		hi = sort.Search(len(es), func(i int) bool {
			return bytes.Compare(es[i].key, end) >= 0
		})
	}
	return es[lo:hi]
}

// mergeEntries merges sorted entry slices; earlier sources win on equal
// keys (sources must be ordered newest first).
func mergeEntries(sources [][]entry) []entry {
	idx := make([]int, len(sources))
	var out []entry
	for {
		best := -1
		for i, s := range sources {
			if idx[i] >= len(s) {
				continue
			}
			if best == -1 || bytes.Compare(s[idx[i]].key, sources[best][idx[best]].key) < 0 {
				best = i
			}
		}
		if best == -1 {
			return out
		}
		e := sources[best][idx[best]]
		out = append(out, e)
		// Skip the same key in all older sources (and the chosen one).
		for i, s := range sources {
			for idx[i] < len(s) && bytes.Equal(s[idx[i]].key, e.key) {
				idx[i]++
			}
		}
	}
}

// Flush freezes the memtable into a new immutable run. Flushes are the
// MetaFresher moment in the metadata-acceleration design: buffered
// key-value updates become persistent sorted data.
func (db *DB) Flush() time.Duration {
	db.mu.Lock()
	if db.mem.size == 0 {
		db.mu.Unlock()
		return 0
	}
	es := db.mem.entries()
	r := &run{entries: es, bytes: db.mem.bytes}
	db.runs = append([]*run{r}, db.runs...)
	db.mem = newSkiplist(db.opts.Seed + uint64(len(db.runs)))
	db.wal = 0
	needCompact := len(db.runs) > 8
	db.mu.Unlock()
	cost := db.charge(true, r.bytes)
	if needCompact {
		cost += db.Compact()
	}
	return cost
}

// Compact merges all runs into one, dropping superseded versions and
// tombstones.
func (db *DB) Compact() time.Duration {
	db.mu.Lock()
	if len(db.runs) <= 1 {
		db.mu.Unlock()
		return 0
	}
	sources := make([][]entry, len(db.runs))
	var inBytes int64
	for i, r := range db.runs {
		sources[i] = r.entries
		inBytes += r.bytes
	}
	merged := mergeEntries(sources)
	live := merged[:0]
	var outBytes int64
	for _, e := range merged {
		if e.tomb {
			continue
		}
		live = append(live, e)
		outBytes += int64(len(e.key) + len(e.value))
	}
	db.runs = []*run{{entries: live, bytes: outBytes}}
	db.mu.Unlock()
	return db.charge(false, inBytes) + db.charge(true, outBytes)
}

// Snapshot returns a consistent point-in-time read-only view.
func (db *DB) Snapshot() *Snapshot {
	db.mu.Lock()
	defer db.mu.Unlock()
	frozen := &run{entries: db.mem.entries(), bytes: db.mem.bytes}
	runs := make([]*run, 0, len(db.runs)+1)
	runs = append(runs, frozen)
	runs = append(runs, db.runs...)
	return &Snapshot{runs: runs, db: db}
}

// Stats reports engine counters.
type Stats struct {
	Puts, Gets    int64
	MemtableBytes int64
	Runs          int
	LiveKeys      int
}

// Stats returns a snapshot of engine counters. LiveKeys is exact but
// costs a full merge; callers use it in tests and diagnostics.
func (db *DB) Stats() Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	st := Stats{
		Puts:          db.puts,
		Gets:          db.gets.Load(),
		MemtableBytes: db.mem.bytes,
		Runs:          len(db.runs),
	}
	sources := [][]entry{db.mem.entries()}
	for _, r := range db.runs {
		sources = append(sources, r.entries)
	}
	for _, e := range mergeEntries(sources) {
		if !e.tomb {
			st.LiveKeys++
		}
	}
	return st
}

// Checkpoint serializes the DB's live contents — the durable state a
// fault-tolerant deployment ships to stable storage so a restarted node
// can recover (the dispatcher's topology store and the catalog both
// claim fault tolerance in the paper).
func (db *DB) Checkpoint() []byte {
	db.mu.RLock()
	sources := [][]entry{db.mem.entries()}
	for _, r := range db.runs {
		sources = append(sources, r.entries)
	}
	db.mu.RUnlock()
	var out []byte
	out = append(out, 'K', 'V', 'C', '1')
	for _, e := range mergeEntries(sources) {
		if e.tomb {
			continue
		}
		out = binary.AppendUvarint(out, uint64(len(e.key)))
		out = append(out, e.key...)
		out = binary.AppendUvarint(out, uint64(len(e.value)))
		out = append(out, e.value...)
	}
	return out
}

// Restore rebuilds a DB from a Checkpoint into a single immutable run.
// Existing contents are discarded. The run is binary-searched, so keys
// must come strictly ascending, as Checkpoint writes them; lengths must
// be minimal varints, so what Restore accepts Checkpoint reproduces.
func (db *DB) Restore(data []byte) error {
	if len(data) < 4 || string(data[:4]) != "KVC1" {
		return errors.New("kv: bad checkpoint magic")
	}
	data = data[4:]
	var es []entry
	var size int64
	for len(data) > 0 {
		kl, n := binary.Uvarint(data)
		if n <= 0 || uint64(len(data)-n) < kl || (n > 1 && data[n-1] == 0) {
			return errors.New("kv: malformed checkpoint key length")
		}
		data = data[n:]
		key := append([]byte(nil), data[:kl]...)
		data = data[kl:]
		if len(es) > 0 && bytes.Compare(es[len(es)-1].key, key) >= 0 {
			return errors.New("kv: checkpoint keys out of order")
		}
		vl, n := binary.Uvarint(data)
		if n <= 0 || uint64(len(data)-n) < vl || (n > 1 && data[n-1] == 0) {
			return errors.New("kv: malformed checkpoint value length")
		}
		data = data[n:]
		val := append([]byte(nil), data[:vl]...)
		data = data[vl:]
		es = append(es, entry{key: key, value: val})
		size += int64(len(key) + len(val))
	}
	db.mu.Lock()
	db.mem = newSkiplist(db.opts.Seed)
	db.runs = []*run{{entries: es, bytes: size}}
	db.wal = 0
	db.mu.Unlock()
	return nil
}

// Snapshot is a read-only point-in-time view of a DB.
type Snapshot struct {
	runs []*run
	db   *DB
}

// Get returns the value for key as of the snapshot.
func (s *Snapshot) Get(key []byte) (value []byte, ok bool) {
	for _, r := range s.runs {
		if v, tomb, found := r.get(key); found {
			if tomb {
				return nil, false
			}
			return v, true
		}
	}
	return nil, false
}

// Scan iterates live keys in [start, end) as of the snapshot.
func (s *Snapshot) Scan(start, end []byte, fn func(key, value []byte) bool) {
	sources := make([][]entry, len(s.runs))
	for i, r := range s.runs {
		sources[i] = sliceRange(r.entries, start, end)
	}
	for _, e := range mergeEntries(sources) {
		if e.tomb {
			continue
		}
		if !fn(e.key, e.value) {
			return
		}
	}
}
