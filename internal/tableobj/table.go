package tableobj

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"streamlake/internal/colfile"
	"streamlake/internal/sim"
)

// Table is one table object: operations over the directory of data and
// metadata files plus the catalog entry.
type Table struct {
	fs    *FileStore
	cat   *Catalog
	clock *sim.Clock
	meta  TableMeta

	seq atomic.Int64 // unique ids for data files, commits and snapshots

	zoneMaps atomic.Bool // collect zone maps + blooms on WriteRows
}

// SetZoneMaps toggles zone-map and bloom-filter statistics collection
// for data files written through this handle (see DataFile.Zones). Off
// by default: enabling changes the commit metadata encoding, so runs
// are digest-comparable only with the same setting.
func (t *Table) SetZoneMaps(on bool) { t.zoneMaps.Store(on) }

// Create registers a new table: catalog entry, /data and /metadata
// directories, and an initial empty snapshot (CREATE TABLE in Section
// V-B).
func Create(clock *sim.Clock, fs *FileStore, cat *Catalog, meta TableMeta) (*Table, time.Duration, error) {
	if meta.Schema.NumFields() == 0 {
		return nil, 0, fmt.Errorf("%w: empty schema", ErrSchemaInvalid)
	}
	if meta.PartitionColumn != "" && meta.Schema.FieldIndex(meta.PartitionColumn) < 0 {
		return nil, 0, fmt.Errorf("%w: partition column %q not in schema", ErrSchemaInvalid, meta.PartitionColumn)
	}
	if meta.TargetFileSize <= 0 {
		meta.TargetFileSize = 64 << 20
	}
	t := &Table{fs: fs, cat: cat, clock: clock, meta: meta}
	initial := Snapshot{ID: t.nextID(), Timestamp: clock.Now()}
	blob, err := EncodeSnapshot(initial)
	if err != nil {
		return nil, 0, err
	}
	cost, err := fs.Write(SnapshotPath(meta.Path, initial.ID), blob)
	if err != nil {
		return nil, 0, err
	}
	// Persist the table configuration under /metadata as the paper
	// describes (schema, partition spec, target file size).
	cfg := fmt.Sprintf("name=%s\npartition=%s\ntarget_file_size=%d\nfields=%d\n",
		meta.Name, meta.PartitionColumn, meta.TargetFileSize, meta.Schema.NumFields())
	c2, err := fs.Write(meta.Path+"/metadata/table.properties", []byte(cfg))
	if err != nil {
		return nil, 0, err
	}
	c3, err := cat.Register(meta, initial.ID)
	if err != nil {
		return nil, 0, err
	}
	return t, cost + c2 + c3, nil
}

// Open attaches to an existing table by catalog name.
func Open(clock *sim.Clock, fs *FileStore, cat *Catalog, name string) (*Table, time.Duration, error) {
	meta, cost, err := cat.Get(name)
	if err != nil {
		return nil, cost, err
	}
	if meta.Dropped {
		return nil, cost, fmt.Errorf("%w: %s", ErrTableDropped, name)
	}
	t := &Table{fs: fs, cat: cat, clock: clock, meta: meta}
	// Seed the id sequence past anything persisted.
	if ptr, _, err := cat.SnapshotPointer(name); err == nil {
		t.seq.Store(ptr)
	}
	return t, cost, nil
}

// Meta returns the table's profile.
func (t *Table) Meta() TableMeta { return t.meta }

// Schema returns the table schema.
func (t *Table) Schema() colfile.Schema { return t.meta.Schema }

func (t *Table) nextID() int64 { return t.seq.Add(1) }

// Current reads the table's current snapshot.
func (t *Table) Current() (Snapshot, time.Duration, error) {
	ptr, cost, err := t.cat.SnapshotPointer(t.meta.Name)
	if err != nil {
		return Snapshot{}, cost, err
	}
	s, c2, err := t.SnapshotByID(ptr)
	return s, cost + c2, err
}

// SnapshotByID reads a specific snapshot index file.
func (t *Table) SnapshotByID(id int64) (Snapshot, time.Duration, error) {
	blob, cost, err := t.fs.Read(SnapshotPath(t.meta.Path, id))
	if err != nil {
		return Snapshot{}, cost, err
	}
	s, err := DecodeSnapshot(blob)
	return s, cost, err
}

// AsOf returns the latest snapshot whose timestamp is <= ts — time
// travel. It walks the parent chain from the current snapshot.
func (t *Table) AsOf(ts time.Duration) (Snapshot, time.Duration, error) {
	s, cost, err := t.Current()
	if err != nil {
		return Snapshot{}, cost, err
	}
	for {
		if s.Timestamp <= ts {
			return s, cost, nil
		}
		if s.ParentID == 0 {
			return Snapshot{}, cost, fmt.Errorf("tableobj: no snapshot at or before %v", ts)
		}
		parent, c, err := t.SnapshotByID(s.ParentID)
		cost += c
		if err != nil {
			return Snapshot{}, cost, err
		}
		s = parent
	}
}

// ReadFile opens a data file for scanning.
func (t *Table) ReadFile(f DataFile) (*colfile.Reader, time.Duration, error) {
	blob, cost, err := t.fs.Read(f.Path)
	if err != nil {
		return nil, cost, err
	}
	r, err := colfile.Open(blob)
	return r, cost, err
}

// PartitionFor renders the partition directory name for a row, e.g.
// "province=Beijing". Unpartitioned tables use "default".
func (t *Table) PartitionFor(row colfile.Row) string {
	if t.meta.PartitionColumn == "" {
		return "default"
	}
	c := t.meta.Schema.FieldIndex(t.meta.PartitionColumn)
	return t.meta.PartitionColumn + "=" + row[c].String()
}

// PartitionRun returns how many leading rows of valid rows share the
// first one's partition, comparing partition-column values bit for bit:
// a float partition's directory name tells -0 from 0. Unpartitioned,
// that is every row.
func (t *Table) PartitionRun(rows []colfile.Row) int {
	if t.meta.PartitionColumn == "" || len(rows) == 0 {
		return len(rows)
	}
	c := t.meta.Schema.FieldIndex(t.meta.PartitionColumn)
	first := rows[0][c]
	for i, r := range rows {
		if v := r[c]; v.Str != first.Str || v.Int != first.Int || v.Bool != first.Bool ||
			math.Float64bits(v.Float) != math.Float64bits(first.Float) {
			return i
		}
	}
	return len(rows)
}

// Txn stages data-file additions and removals for one atomic commit.
type Txn struct {
	t *Table
	// base is the snapshot the transaction started from. Until Commit
	// needs the manifest only its ID is set and baseBlob holds the
	// encoded file: a transaction that just writes data files (Insert
	// through the metadata cache) never pays the decode, which made a
	// load quadratic in file count.
	base     Snapshot
	baseBlob []byte
	adds     []DataFile
	removes  []DataFile
	cost     time.Duration
	finished bool
}

// Begin starts a transaction against the current snapshot. Ids this
// handle hands out from here on exceed the snapshot's: another handle
// on the same table may have committed since this one was opened, and
// numbering from the stale sequence would reuse — and overwrite — the
// data files that commit wrote.
func (t *Table) Begin() (*Txn, error) {
	ptr, cost, err := t.cat.SnapshotPointer(t.meta.Name)
	if err != nil {
		return nil, err
	}
	blob, c2, err := t.fs.Read(SnapshotPath(t.meta.Path, ptr))
	if err != nil {
		return nil, err
	}
	for {
		seq := t.seq.Load()
		if seq >= ptr || t.seq.CompareAndSwap(seq, ptr) {
			break
		}
	}
	return &Txn{t: t, base: Snapshot{ID: ptr}, baseBlob: blob, cost: cost + c2}, nil
}

// Cost reports the accumulated modelled latency of the transaction's
// storage operations so far.
func (x *Txn) Cost() time.Duration { return x.cost }

// AddFile stages an already-written data file for addition.
func (x *Txn) AddFile(f DataFile) { x.adds = append(x.adds, f) }

// RemoveFile stages a data file for removal.
func (x *Txn) RemoveFile(f DataFile) { x.removes = append(x.removes, f) }

// WriteRows writes rows as one columnar data file in the right partition
// directory and stages it. Rows must share one partition: a batch that
// spans two fails with ErrPartitionSpan. The rows are encoded in place,
// so the caller may reuse their storage once WriteRows returns.
func (x *Txn) WriteRows(rows []colfile.Row) (DataFile, error) {
	if len(rows) == 0 {
		return DataFile{}, errors.New("tableobj: WriteRows with no rows")
	}
	schema := x.t.meta.Schema
	nf := schema.NumFields()
	w := colfile.NewWriter(schema, 0)
	if err := w.AppendRows(rows); err != nil {
		return DataFile{}, err
	}
	if x.t.PartitionRun(rows) < len(rows) {
		return DataFile{}, fmt.Errorf("%w: the first row is in %s", ErrPartitionSpan, x.t.PartitionFor(rows[0]))
	}
	blob, err := w.Finish()
	if err != nil {
		return DataFile{}, err
	}
	partition := x.t.PartitionFor(rows[0])
	f := DataFile{
		Path:      DataPath(x.t.meta.Path, partition, x.t.nextID()),
		Partition: partition,
		Rows:      int64(len(rows)),
		Bytes:     int64(len(blob)),
		Min:       make([]colfile.Value, nf),
		Max:       make([]colfile.Value, nf),
	}
	zoneMaps := x.t.zoneMaps.Load()
	// The writer took each row group's range, keeping the first-seen value
	// on ties; folding the groups in order keeps the file's first-seen
	// value too. With zone maps on, the groups' ranges are the zones.
	for g := 0; g < w.NumRowGroups(); g++ {
		var z ZoneMap
		if zoneMaps {
			z = ZoneMap{Min: make([]colfile.Value, nf), Max: make([]colfile.Value, nf)}
		}
		for c := 0; c < nf; c++ {
			gs := w.GroupStats(g, c)
			if g == 0 || colfile.Compare(gs.Min, f.Min[c]) < 0 {
				f.Min[c] = gs.Min
			}
			if g == 0 || colfile.Compare(gs.Max, f.Max[c]) > 0 {
				f.Max[c] = gs.Max
			}
			if zoneMaps {
				z.Min[c], z.Max[c] = gs.Min, gs.Max
			}
		}
		if zoneMaps {
			f.Zones = append(f.Zones, z)
		}
	}
	f.ownBounds()
	if zoneMaps {
		// Per-column blooms from the rows: planning-time pruning stats
		// the commit carries beside the zones.
		f.Blooms = make([]*Bloom, nf)
		for c := range f.Blooms {
			f.Blooms[c] = NewBloom(len(rows))
		}
		for _, r := range rows {
			for c := range f.Blooms {
				f.Blooms[c].Add(r[c])
			}
		}
	}
	cost, err := x.t.fs.Write(f.Path, blob)
	if err != nil {
		return DataFile{}, err
	}
	x.cost += cost
	x.AddFile(f)
	return f, nil
}

// ownBounds moves f's string bounds into one allocation of f's own.
// The writer took them from the caller's rows, whose strings may share
// a far larger buffer (a decoded message's); f outlives the Txn in its
// snapshot and must not keep that buffer alive.
func (f *DataFile) ownBounds() {
	bounds := [][]colfile.Value{f.Min, f.Max}
	for _, z := range f.Zones {
		bounds = append(bounds, z.Min, z.Max)
	}
	n := 0
	for _, vs := range bounds {
		for _, v := range vs {
			n += len(v.Str)
		}
	}
	var b strings.Builder
	b.Grow(n)
	for _, vs := range bounds {
		for _, v := range vs {
			b.WriteString(v.Str)
		}
	}
	s := b.String()
	for _, vs := range bounds {
		for i := range vs {
			vs[i].Str, s = s[:len(vs[i].Str)], s[len(vs[i].Str):]
		}
	}
}

// WritePartitions writes one data file per partition (WriteRows each)
// in sorted partition order, so which file gets which id — and with it
// log placement, cache contents and virtual latency downstream —
// follows from the rows, not from map iteration order.
func (x *Txn) WritePartitions(byPartition map[string][]colfile.Row) ([]DataFile, error) {
	partitions := make([]string, 0, len(byPartition))
	for p := range byPartition {
		partitions = append(partitions, p)
	}
	sort.Strings(partitions)
	files := make([]DataFile, 0, len(partitions))
	for _, p := range partitions {
		f, err := x.WriteRows(byPartition[p])
		if err != nil {
			return files, err
		}
		files = append(files, f)
	}
	return files, nil
}

// Commit writes the commit file, builds and writes the next snapshot,
// and publishes it with a catalog CAS. ErrConflict reports a losing race
// with a concurrent writer; the staged files remain for a Retry.
func (x *Txn) Commit() (Snapshot, error) {
	if x.finished {
		return Snapshot{}, errors.New("tableobj: transaction already finished")
	}
	if x.baseBlob != nil {
		base, err := DecodeSnapshot(x.baseBlob)
		if err != nil {
			return Snapshot{}, err
		}
		x.base, x.baseBlob = base, nil
	}
	now := x.t.clock.Now()
	commit := Commit{ID: x.t.nextID(), Timestamp: now}
	for _, f := range x.adds {
		commit.Ops = append(commit.Ops, FileOp{Add: true, File: f})
	}
	for _, f := range x.removes {
		commit.Ops = append(commit.Ops, FileOp{Add: false, File: f})
	}
	blob, err := EncodeCommit(commit)
	if err != nil {
		return Snapshot{}, err
	}
	cost, err := x.t.fs.Write(CommitPath(x.t.meta.Path, commit.ID), blob)
	if err != nil {
		return Snapshot{}, err
	}
	x.cost += cost

	next := Snapshot{
		ID:        commit.ID,
		ParentID:  x.base.ID,
		Timestamp: now,
		CommitIDs: append(append([]int64(nil), x.base.CommitIDs...), commit.ID),
	}
	removed := make(map[string]bool, len(x.removes))
	for _, f := range x.removes {
		removed[f.Path] = true
	}
	for _, f := range x.base.Files {
		if removed[f.Path] {
			next.RemovedFiles++
			next.RemovedRows += f.Rows
			continue
		}
		next.Files = append(next.Files, f)
		next.RowCount += f.Rows
	}
	for _, f := range x.adds {
		next.Files = append(next.Files, f)
		next.RowCount += f.Rows
		next.AddedFiles++
		next.AddedRows += f.Rows
	}
	sblob, err := EncodeSnapshot(next)
	if err != nil {
		return Snapshot{}, err
	}
	c2, err := x.t.fs.Write(SnapshotPath(x.t.meta.Path, next.ID), sblob)
	if err != nil {
		return Snapshot{}, err
	}
	x.cost += c2

	c3, err := x.t.cat.AdvanceSnapshot(x.t.meta.Name, x.base.ID, next.ID)
	x.cost += c3
	if err != nil {
		// Losing writer: withdraw this attempt's metadata files; staged
		// data files stay for Retry.
		x.t.fs.Delete(CommitPath(x.t.meta.Path, commit.ID))
		x.t.fs.Delete(SnapshotPath(x.t.meta.Path, next.ID))
		return Snapshot{}, err
	}
	x.finished = true
	return next, nil
}

// Retry refreshes the transaction's base snapshot after a conflict and
// attempts the commit again. Removals that no longer exist in the new
// base fail the retry (the compaction-vs-ingest conflict of Section
// VI-A).
func (x *Txn) Retry() (Snapshot, error) {
	base, cost, err := x.t.Current()
	if err != nil {
		return Snapshot{}, err
	}
	x.cost += cost
	present := make(map[string]bool, len(base.Files))
	for _, f := range base.Files {
		present[f.Path] = true
	}
	for _, f := range x.removes {
		if !present[f.Path] {
			return Snapshot{}, fmt.Errorf("%w: file %s no longer current", ErrConflict, f.Path)
		}
	}
	x.base, x.baseBlob = base, nil
	return x.Commit()
}

// Abort withdraws the transaction, deleting any data files it wrote.
func (x *Txn) Abort() error {
	if x.finished {
		return nil
	}
	x.finished = true
	for _, f := range x.adds {
		if err := x.t.fs.Delete(f.Path); err != nil && !errors.Is(err, ErrNotFound) {
			return err
		}
	}
	return nil
}

// DropSoft unregisters the table from the catalog but retains metadata
// and data for potential restoration.
func (t *Table) DropSoft() (time.Duration, error) {
	return t.cat.SoftDrop(t.meta.Name)
}

// DropHard removes the table's data and metadata files and clears it
// from the catalog.
func (t *Table) DropHard() (time.Duration, error) {
	paths, cost := t.fs.List(t.meta.Path + "/")
	for _, p := range paths {
		if err := t.fs.Delete(p); err != nil {
			return cost, err
		}
	}
	c2, err := t.cat.HardDrop(t.meta.Name)
	return cost + c2, err
}

// ExpireSnapshots deletes snapshot and commit files older than keepAfter
// that are no longer reachable from the current snapshot's parent chain
// within the retention window, along with data files referenced only by
// expired snapshots. It returns the number of metadata files removed.
func (t *Table) ExpireSnapshots(keepAfter time.Duration) (int, error) {
	cur, _, err := t.Current()
	if err != nil {
		return 0, err
	}
	// Walk the ancestor chain: ancestors at or after keepAfter are
	// retained (their files protected); strictly older ones are victims.
	// The current snapshot is always retained.
	liveFiles := map[string]bool{}
	for _, f := range cur.Files {
		liveFiles[f.Path] = true
	}
	var victims []Snapshot
	s := cur
	for s.ParentID != 0 {
		parent, _, err := t.SnapshotByID(s.ParentID)
		if err != nil {
			break
		}
		if parent.Timestamp >= keepAfter {
			for _, f := range parent.Files {
				liveFiles[f.Path] = true
			}
		} else {
			victims = append(victims, parent)
		}
		s = parent
	}
	for _, v := range victims {
		for _, f := range v.Files {
			if !liveFiles[f.Path] && t.fs.Exists(f.Path) {
				t.fs.Delete(f.Path)
			}
		}
		t.fs.Delete(SnapshotPath(t.meta.Path, v.ID))
		t.fs.Delete(CommitPath(t.meta.Path, v.ID))
	}
	return len(victims), nil
}
