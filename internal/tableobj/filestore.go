// Package tableobj implements the table object (Section IV-B, Figure 5):
// a lakehouse-format table logically defined by a directory of data and
// metadata files. Data files are columnar (package colfile); commits are
// binary record batches (package rowcodec, the Avro stand-in); snapshots
// index valid commits; the catalog lives in the key-value engine for
// fast metadata access. Commits + snapshots give snapshot-level
// isolation with optimistic concurrency control and time travel.
package tableobj

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"streamlake/internal/plog"
)

// FileStore is the table directory abstraction over PLogs: every file is
// persisted as one sealed PLog ("the data and metadata files are
// converted to PLogs in the storage for redundant persistence").
type FileStore struct {
	mgr *plog.Manager
	red plog.Redundancy // every file's erasure code, EC(4,2) by default

	mu    sync.Mutex
	files map[string]fileEntry
}

type fileEntry struct {
	log  plog.ID
	size int64
}

// ErrNotFound is returned when a path does not exist.
var ErrNotFound = errors.New("tableobj: file not found")

// NewFileStore builds a file store creating PLogs from mgr.
func NewFileStore(mgr *plog.Manager) *FileStore {
	return &FileStore{mgr: mgr, red: plog.EC(4, 2), files: make(map[string]fileEntry)}
}

// SetRedundancy sets the erasure code later writes use. Call at wiring
// time.
func (fs *FileStore) SetRedundancy(red plog.Redundancy) { fs.red = red }

// Write persists data at path (overwriting), returning the modelled
// write latency.
func (fs *FileStore) Write(path string, data []byte) (time.Duration, error) {
	l, err := fs.mgr.Create(fs.red)
	if err != nil {
		return 0, err
	}
	_, cost, err := l.Append(data)
	if err != nil {
		return 0, fmt.Errorf("tableobj: write %s: %w", path, err)
	}
	l.Seal()
	fs.mu.Lock()
	old, existed := fs.files[path]
	fs.files[path] = fileEntry{log: l.ID(), size: int64(len(data))}
	fs.mu.Unlock()
	if existed {
		if err := fs.mgr.Destroy(old.log); err != nil {
			return cost, err
		}
	}
	return cost, nil
}

// Read returns the contents at path with the modelled read latency.
func (fs *FileStore) Read(path string) ([]byte, time.Duration, error) {
	fs.mu.Lock()
	e, ok := fs.files[path]
	fs.mu.Unlock()
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	l := fs.mgr.Get(e.log)
	if l == nil {
		return nil, 0, fmt.Errorf("tableobj: dangling plog for %s", path)
	}
	return l.Read(0, e.size)
}

// Delete removes the file at path.
func (fs *FileStore) Delete(path string) error {
	fs.mu.Lock()
	e, ok := fs.files[path]
	if ok {
		delete(fs.files, path)
	}
	fs.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return fs.mgr.Destroy(e.log)
}

// List returns paths with the given prefix, sorted. Its modelled cost is
// linear in the number of entries under the prefix — the file-based
// catalog listing whose latency Figure 15(a) plots against partition
// count.
func (fs *FileStore) List(prefix string) ([]string, time.Duration) {
	fs.mu.Lock()
	var out []string
	for p := range fs.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	fs.mu.Unlock()
	sort.Strings(out)
	// One metadata lookup per listed entry, charged to the manager's
	// pool via a tiny read on the first file's log; model as a fixed
	// per-entry cost instead to avoid hot-device skew.
	const perEntry = 120 * time.Microsecond // directory RPC + inode read
	return out, time.Duration(len(out)) * perEntry
}

// Count returns the number of files.
func (fs *FileStore) Count() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.files)
}
