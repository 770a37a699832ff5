// Package kv is the embedded key-value store StreamLake keeps its small
// metadata in, in the three places the paper calls out: the stream
// dispatcher's fault-tolerant topology store and consumer offsets
// (Section V-A), the table catalog "stored in a distributed key-value
// engine optimized for RDMA and SCM" (Section IV-B), and the metadata
// write cache behind the lakehouse's metadata acceleration (Section V-B).
//
// It is one map under a read-write lock. Every write charges its WAL
// append to a backing device, so a catalog on SCM is measurably faster
// than one on HDD — the effect Figure 15 measures. Reads are served
// from memory and cost nothing.
package kv

import (
	"bytes"
	"errors"
	"sort"
	"sync"
	"time"

	"streamlake/internal/sim"
)

// DB is the key-value store. The zero value is not usable; call Open.
type DB struct {
	dev *sim.Device

	mu sync.RWMutex
	m  map[string][]byte
}

// ErrCASMismatch is returned by CompareAndSwap when the current value
// does not match the expected one.
var ErrCASMismatch = errors.New("kv: compare-and-swap mismatch")

// Open creates a DB whose writes charge dev. A nil dev is a pure
// in-memory store with zero cost, used for tests.
func Open(dev *sim.Device) *DB {
	return &DB{dev: dev, m: make(map[string][]byte)}
}

// wal charges the WAL append of n bytes.
func (db *DB) wal(n int) time.Duration {
	if db.dev == nil {
		return 0
	}
	return db.dev.Write(int64(n))
}

// Put stores key=value, returning the modelled WAL latency.
func (db *DB) Put(key, value []byte) time.Duration {
	v := append([]byte(nil), value...)
	db.mu.Lock()
	db.m[string(key)] = v
	db.mu.Unlock()
	return db.wal(len(key) + len(v))
}

// Delete removes key and returns the WAL latency of its tombstone.
func (db *DB) Delete(key []byte) time.Duration {
	db.mu.Lock()
	delete(db.m, string(key))
	db.mu.Unlock()
	return db.wal(len(key) + 1)
}

// Get returns the value for key. It is served from memory at no
// modelled cost, which is what makes the metadata cache's O(1) lookups
// cheap.
func (db *DB) Get(key []byte) (value []byte, ok bool) {
	db.mu.RLock()
	value, ok = db.m[string(key)]
	db.mu.RUnlock()
	return value, ok
}

// CompareAndSwap atomically replaces key's value with next if the current
// value equals expect (nil expect means "key absent"). It returns
// ErrCASMismatch otherwise. This is the catalog-pointer primitive that
// the table object's optimistic concurrency control publishes commits
// through.
func (db *DB) CompareAndSwap(key, expect, next []byte) (time.Duration, error) {
	db.mu.Lock()
	cur, found := db.m[string(key)]
	if found != (expect != nil) || !bytes.Equal(cur, expect) {
		db.mu.Unlock()
		return 0, ErrCASMismatch
	}
	db.m[string(key)] = append([]byte(nil), next...)
	db.mu.Unlock()
	return db.wal(len(key) + len(next)), nil
}

// Scan calls fn for each key in [start, end) in byte order; fn returning
// false stops the scan. A nil end scans to the last key. The range is
// collected under the lock and fn runs without it, so fn may write to
// the DB.
func (db *DB) Scan(start, end []byte, fn func(key, value []byte) bool) {
	type pair struct{ k, v []byte }
	var in []pair
	db.mu.RLock()
	for k, v := range db.m {
		if k >= string(start) && (end == nil || k < string(end)) {
			in = append(in, pair{[]byte(k), v})
		}
	}
	db.mu.RUnlock()
	sort.Slice(in, func(i, j int) bool { return bytes.Compare(in[i].k, in[j].k) < 0 })
	for _, p := range in {
		if !fn(p.k, p.v) {
			return
		}
	}
}
