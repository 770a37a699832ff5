package tableobj

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"streamlake/internal/colfile"
	"streamlake/internal/kv"
	"streamlake/internal/sim"
)

// TableMeta is the catalog's profile data for a table object: identity,
// directory path, schema, partition spec, snapshot pointer and
// modification timestamps (Section IV-B "Catalog").
type TableMeta struct {
	ID              int64
	Name            string
	Path            string
	Schema          colfile.Schema
	PartitionColumn string
	TargetFileSize  int64
	CreatedAt       time.Duration
	ModifiedAt      time.Duration
	Dropped         bool // soft-dropped: unregistered but restorable
}

// Catalog stores table profiles and snapshot pointers in the key-value
// engine. The paper keeps the catalog in a distributed KV store
// "optimized for RDMA and SCM" — the backing device is SCM-class, making
// catalog lookups O(1) and cheap, which is half of the metadata
// acceleration story.
type Catalog struct {
	db    *kv.DB
	clock *sim.Clock
}

// Errors returned by catalog operations.
var (
	ErrTableExists   = errors.New("tableobj: table already exists")
	ErrUnknownTable  = errors.New("tableobj: unknown table")
	ErrConflict      = errors.New("tableobj: concurrent commit conflict")
	ErrTableDropped  = errors.New("tableobj: table is dropped")
	ErrSchemaInvalid = errors.New("tableobj: invalid schema or partition column")
	ErrPartitionSpan = errors.New("tableobj: rows span partitions")
	// ErrFileGone is no ErrConflict: no re-base brings back a removed
	// file, so Table.Write plans the transaction again.
	ErrFileGone = errors.New("tableobj: a removed file is no longer current")
)

// NewCatalog builds a catalog on an SCM-backed KV store.
func NewCatalog(clock *sim.Clock) *Catalog {
	return &Catalog{
		db:    kv.Open(sim.NewDeviceOf("catalog-scm", sim.SCM)),
		clock: clock,
	}
}

func metaKey(name string) []byte { return []byte("cat/meta/" + name) }
func snapKey(name string) []byte { return []byte("cat/snap/" + name) }

// Register creates a catalog entry for a new table and initializes its
// snapshot pointer to snapID. It claims the name by compare-and-swap on
// the pointer before it writes the profile, so the loser of two creates
// of one name writes nothing.
func (c *Catalog) Register(meta TableMeta, snapID int64) (time.Duration, error) {
	meta.CreatedAt = c.clock.Now()
	meta.ModifiedAt = meta.CreatedAt
	blob, err := json.Marshal(meta)
	if err != nil {
		return 0, err
	}
	cost, err := c.db.CompareAndSwap(snapKey(meta.Name), nil, encodeSnapPointer(snapID))
	if err != nil {
		return 0, fmt.Errorf("%w: %s", ErrTableExists, meta.Name)
	}
	return cost + c.db.Put(metaKey(meta.Name), blob), nil
}

// Get returns a table's profile.
func (c *Catalog) Get(name string) (TableMeta, error) {
	blob, ok := c.db.Get(metaKey(name))
	if !ok {
		return TableMeta{}, fmt.Errorf("%w: %s", ErrUnknownTable, name)
	}
	var meta TableMeta
	err := json.Unmarshal(blob, &meta)
	return meta, err
}

// put replaces a table's profile.
func (c *Catalog) put(meta TableMeta) (time.Duration, error) {
	meta.ModifiedAt = c.clock.Now()
	blob, err := json.Marshal(meta)
	if err != nil {
		return 0, err
	}
	return c.db.Put(metaKey(meta.Name), blob), nil
}

// SnapshotPointer returns the table's current snapshot id.
func (c *Catalog) SnapshotPointer(name string) (int64, error) {
	blob, ok := c.db.Get(snapKey(name))
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownTable, name)
	}
	id, n := binary.Varint(blob)
	if n <= 0 {
		return 0, errors.New("tableobj: corrupt snapshot pointer")
	}
	return id, nil
}

// AdvanceSnapshot publishes a new snapshot by compare-and-swap on the
// pointer — the single atomic step of the optimistic concurrency
// protocol. ErrConflict means another writer won the race.
func (c *Catalog) AdvanceSnapshot(name string, from, to int64) (time.Duration, error) {
	cost, err := c.db.CompareAndSwap(snapKey(name), encodeSnapPointer(from), encodeSnapPointer(to))
	if errors.Is(err, kv.ErrCASMismatch) {
		return cost, ErrConflict
	}
	return cost, err
}

func encodeSnapPointer(id int64) []byte {
	return binary.AppendVarint(nil, id)
}

// SoftDrop unregisters the table but keeps its metadata and data for
// restoration (DROP TABLE soft).
func (c *Catalog) SoftDrop(name string) (time.Duration, error) {
	meta, err := c.Get(name)
	if err != nil {
		return 0, err
	}
	meta.Dropped = true
	return c.put(meta)
}

// Restore re-registers a soft-dropped table, linking the new entry to
// the original table path.
func (c *Catalog) Restore(name string) (time.Duration, error) {
	meta, err := c.Get(name)
	if err != nil {
		return 0, err
	}
	if !meta.Dropped {
		return 0, fmt.Errorf("tableobj: table %s is not dropped", name)
	}
	meta.Dropped = false
	return c.put(meta)
}

// HardDrop clears the table from the catalog entirely (DROP TABLE hard's
// catalog half; the file half is Table.DropHard).
func (c *Catalog) HardDrop(name string) time.Duration {
	return c.db.Delete(metaKey(name)) + c.db.Delete(snapKey(name))
}

// List returns the names of registered (non-dropped) tables.
func (c *Catalog) List() []string {
	var names []string
	c.db.Scan([]byte("cat/meta/"), []byte("cat/meta0"), func(k, v []byte) bool {
		var meta TableMeta
		if json.Unmarshal(v, &meta) == nil && !meta.Dropped {
			names = append(names, meta.Name)
		}
		return true
	})
	sort.Strings(names)
	return names
}
