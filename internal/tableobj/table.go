package tableobj

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"streamlake/internal/colfile"
	"streamlake/internal/obs"
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
}

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
	initial := Manifest{kind: kindHeader, Snapshot: Snapshot{ID: t.nextID(), Timestamp: clock.Now()}}
	// Claim the name before writing any file: a create that collides
	// with an existing table must not overwrite its first header.
	cost, err := cat.Register(meta, initial.ID)
	if err != nil {
		return nil, 0, err
	}
	blob := initial.encode(nil)
	c2, err := fs.Write(SnapshotPath(meta.Path, initial.ID), blob)
	if err != nil {
		cat.HardDrop(meta.Name)
		return nil, 0, err
	}
	// Persist the table configuration under /metadata as the paper
	// describes (schema, partition spec, target file size).
	cfg := fmt.Sprintf("name=%s\npartition=%s\ntarget_file_size=%d\nfields=%d\n",
		meta.Name, meta.PartitionColumn, meta.TargetFileSize, meta.Schema.NumFields())
	c3, err := fs.Write(meta.Path+"/metadata/table.properties", []byte(cfg))
	if err != nil {
		cat.HardDrop(meta.Name)
		return nil, 0, err
	}
	return t, cost + c2 + c3, nil
}

// Open attaches to an existing table by catalog name.
func Open(clock *sim.Clock, fs *FileStore, cat *Catalog, name string) (*Table, error) {
	meta, err := cat.Get(name)
	if err != nil {
		return nil, err
	}
	if meta.Dropped {
		return nil, fmt.Errorf("%w: %s", ErrTableDropped, name)
	}
	t := &Table{fs: fs, cat: cat, clock: clock, meta: meta}
	// Seed the id sequence past anything persisted.
	if ptr, err := cat.SnapshotPointer(name); err == nil {
		t.seq.Store(ptr)
	}
	return t, nil
}

// Meta returns the table's profile.
func (t *Table) Meta() TableMeta { return t.meta }

// Schema returns the table schema.
func (t *Table) Schema() colfile.Schema { return t.meta.Schema }

func (t *Table) nextID() int64 { return t.seq.Add(1) }

// Current reads the table's current snapshot.
func (t *Table) Current() (Snapshot, time.Duration, error) {
	ptr, err := t.cat.SnapshotPointer(t.meta.Name)
	if err != nil {
		return Snapshot{}, 0, err
	}
	return t.SnapshotByID(ptr)
}

// SnapshotByID reads a specific snapshot: its header, folded over its
// checkpoint and the commits since (LoadManifest).
func (t *Table) SnapshotByID(id int64) (Snapshot, time.Duration, error) {
	m, cost, err := LoadManifest(t.meta.Path, id, nil, t.fs.Read)
	if err != nil {
		return Snapshot{}, cost, err
	}
	s, err := m.snapshot()
	return s, cost, err
}

// header reads and decodes snapshot id's header.
func (t *Table) header(id int64) (Manifest, time.Duration, error) {
	blob, cost, err := t.fs.Read(SnapshotPath(t.meta.Path, id))
	if err != nil {
		return Manifest{}, cost, err
	}
	h, err := DecodeManifest(blob)
	return h, cost, err
}

// AsOf returns the latest snapshot whose timestamp is <= ts — time
// travel. It walks the parent chain of headers from the current
// snapshot and folds only the one it returns.
func (t *Table) AsOf(ts time.Duration) (Snapshot, time.Duration, error) {
	var cost time.Duration
	id, err := t.cat.SnapshotPointer(t.meta.Name)
	for h := (Manifest{}); err == nil; id = h.ParentID {
		var c time.Duration
		h, c, err = t.header(id)
		cost += c
		if err == nil && h.Timestamp <= ts {
			m, c, err := fold(t.meta.Path, &h, nil, t.fs.Read)
			if err != nil {
				return Snapshot{}, cost + c, err
			}
			s, err := m.snapshot()
			return s, cost + c, err
		}
		if err == nil && h.ParentID == 0 {
			err = fmt.Errorf("tableobj: no snapshot at or before %v", ts)
		}
	}
	return Snapshot{}, cost, err
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

// Txn stages data-file additions and removals for one atomic commit.
type Txn struct {
	t *Table
	// base is the header of the snapshot the transaction started from,
	// decoded from baseBlob at Commit: a transaction that only writes
	// data files (Insert through the metadata cache) never decodes it.
	// manifest is base folded, when a commit counts removals or writes a
	// checkpoint.
	base     Manifest
	baseBlob []byte
	manifest *Manifest
	adds     []DataFile
	removes  []DataFile
	written  []string // the data files this transaction wrote, which Abort withdraws
	cost     time.Duration
	finished bool
}

// Begin starts a transaction against the current snapshot. Ids this
// handle hands out from here on exceed the snapshot's: another handle
// on the same table may have committed since this one was opened, and
// numbering from the stale sequence would reuse — and overwrite — the
// data files that commit wrote.
func (t *Table) Begin() (*Txn, error) {
	x := &Txn{t: t}
	if err := x.rebase(nil); err != nil {
		return nil, err
	}
	return x, nil
}

// Stage starts a transaction that only writes data files for another to
// commit (Insert through the write cache): it reads the pointer its ids
// must exceed but no snapshot, so it can abort but not commit.
func (t *Table) Stage() (*Txn, error) {
	x := &Txn{t: t}
	_, err := x.pointer()
	return x, err
}

// pointer reads the current snapshot pointer and moves the handle's ids
// past it.
func (x *Txn) pointer() (int64, error) {
	ptr, err := x.t.cat.SnapshotPointer(x.t.meta.Name)
	for err == nil {
		seq := x.t.seq.Load()
		if seq >= ptr || x.t.seq.CompareAndSwap(seq, ptr) {
			break
		}
	}
	return ptr, err
}

// rebase makes the current snapshot the transaction's base, charging the
// header read to sp's cursor.
func (x *Txn) rebase(sp *obs.Span) error {
	ptr, err := x.pointer()
	if err != nil {
		return err
	}
	blob, cost, err := x.t.fs.Read(SnapshotPath(x.t.meta.Path, ptr))
	if err != nil {
		return err
	}
	x.base, x.baseBlob, x.manifest = Manifest{Snapshot: Snapshot{ID: ptr}}, blob, nil
	x.cost += cost
	sp.Advance(cost)
	return nil
}

// Write is how a writer changes the table: it runs fn in a transaction
// begun on the current snapshot, fn planning on that snapshot (BaseID,
// BaseFiles), and commits what fn staged, if anything. A lost CAS
// (ErrConflict) re-bases the staged files on the new snapshot, whose
// removals the commit checks; a removed file gone from it (ErrFileGone)
// aborts the attempt and runs fn again: another writer's commit removed
// the file, so every rerun follows some writer's progress, and reruns
// end once the other writers stop removing files. Any
// other error aborts. Each commit is a tableobj.commit child of sp, which
// the pointer and header reads advance; the cost is every attempt's.
func (t *Table) Write(sp *obs.Span, fn func(x *Txn) error) (Snapshot, time.Duration, error) {
	var cost time.Duration
	for {
		x := &Txn{t: t}
		if err := x.rebase(sp); err != nil {
			return Snapshot{}, cost, err
		}
		var snap Snapshot
		err := fn(x)
		if err == nil && len(x.adds)+len(x.removes) > 0 {
			snap, err = x.commit(sp)
			for errors.Is(err, ErrConflict) {
				if err = x.rebase(sp); err == nil {
					snap, err = x.commit(sp)
				}
			}
		}
		cost += x.cost
		if err == nil {
			return snap, cost, nil
		}
		x.Abort()
		if !errors.Is(err, ErrFileGone) {
			return Snapshot{}, cost, err
		}
	}
}

// Cost reports the accumulated modelled latency of the transaction's
// storage operations so far.
func (x *Txn) Cost() time.Duration { return x.cost }

// BaseID is the id of the snapshot the transaction began on.
func (x *Txn) BaseID() int64 { return x.base.ID }

// BaseFiles folds the base's manifest, charging sp's cursor, and returns
// its data files. A commit that removes files reuses the fold.
func (x *Txn) BaseFiles(sp *obs.Span) ([]DataFile, error) {
	if err := x.loadBase(sp); err != nil {
		return nil, err
	}
	s, err := x.manifest.snapshot()
	return s.Files, err
}

// AddFile stages another writer's data file, which Abort leaves, for
// addition.
func (x *Txn) AddFile(f DataFile) { x.adds = append(x.adds, f) }

// RemoveFile stages a data file for removal.
func (x *Txn) RemoveFile(f DataFile) { x.removes = append(x.removes, f) }

// WriteRows writes rows as one columnar data file in the right partition
// directory, through a sink, and stages it. Rows must share one
// partition: a batch that spans two fails with ErrPartitionSpan. The rows
// are encoded as they are passed, so the caller may reuse their storage
// once WriteRows returns.
func (x *Txn) WriteRows(rows []colfile.Row) (DataFile, error) {
	if len(rows) == 0 {
		return DataFile{}, errors.New("tableobj: WriteRows with no rows")
	}
	s := x.t.Sink()
	for _, r := range rows {
		if err := s.Append(r); err != nil {
			return DataFile{}, err
		}
	}
	if len(s.parts) != 1 {
		return DataFile{}, fmt.Errorf("%w: %s and %s", ErrPartitionSpan, s.parts[0].name, s.parts[1].name)
	}
	files, err := s.Stage(x, nil)
	if err != nil {
		return DataFile{}, err
	}
	return files[0], nil
}

// RowSink encodes rows as they arrive into one streaming columnar writer
// per partition, so it holds their encoded columns, never the rows.
type RowSink struct {
	t     *Table
	col   int // the partition column, or -1
	parts []*sinkPart
	byKey map[partKey]*sinkPart
}

// partKey is a partition value, compared bit for bit: a float partition's
// directory name tells -0 from 0. n folds the int, float and bool bits;
// a column's values are of one type, so the other two are zero.
type partKey struct {
	s string
	n uint64
}

type sinkPart struct {
	name string // the directory name, rendered once
	w    *colfile.Writer
	rows int64
}

// Sink returns an empty row sink over the table.
func (t *Table) Sink() RowSink {
	s := RowSink{t: t, col: -1, byKey: map[partKey]*sinkPart{}}
	if t.meta.PartitionColumn != "" {
		s.col = t.meta.Schema.FieldIndex(t.meta.PartitionColumn)
	}
	return s
}

// Append validates row and encodes it into its partition's file. The
// sink keeps nothing of the row but the strings its column encoders hold
// until Stage.
func (s *RowSink) Append(row colfile.Row) error {
	if err := s.t.meta.Schema.Validate(row); err != nil {
		return err
	}
	var k partKey
	if s.col >= 0 {
		v := row[s.col]
		k = partKey{v.Str, uint64(v.Int) ^ math.Float64bits(v.Float)}
		if v.Bool {
			k.n ^= 1
		}
	}
	p := s.byKey[k]
	if p == nil {
		p = &sinkPart{name: s.t.PartitionFor(row), w: colfile.NewWriter(s.t.meta.Schema, 0)}
		k.s = p.name[len(p.name)-len(k.s):] // the row's string may share a far larger buffer
		s.byKey[k], s.parts = p, append(s.parts, p)
	}
	if err := p.w.Append(row); err != nil {
		return err
	}
	p.rows++
	return nil
}

// Stage finishes each partition's file and writes and stages it in x in sorted partition order, so which file
// gets which id (and with it log placement, cache contents and virtual
// latency downstream) follows from the rows, not their arrival. Each
// write is a tableobj.write child of sp; a nil sp traces nothing.
func (s *RowSink) Stage(x *Txn, sp *obs.Span) ([]DataFile, error) {
	slices.SortStableFunc(s.parts, func(a, b *sinkPart) int { return strings.Compare(a.name, b.name) })
	files := make([]DataFile, 0, len(s.parts))
	for _, p := range s.parts {
		f, err := x.stage(p.w, p.name, p.rows, sp)
		if err != nil {
			return files, err
		}
		files = append(files, f)
	}
	return files, nil
}

// MergeFiles rewrites files of one partition as one data file, the one
// WriteRows writes for their rows, and stages it with their removal.
// Their row groups stream column by column into one writer, so no row is
// built. Files of no rows write no file. The merge is a tableobj.merge
// child of sp (files, rows) over a tableobj.read per file and the
// tableobj.write; a nil sp traces nothing.
func (x *Txn) MergeFiles(files []DataFile, sp *obs.Span) (merged DataFile, err error) {
	var rows int64
	msp, start := sp.Child("tableobj.merge"), x.cost
	defer func() {
		if msp != nil {
			msp.SetAttr("files", strconv.Itoa(len(files)))
			msp.SetAttr("rows", strconv.FormatInt(rows, 10))
			msp.End(x.cost - start)
			sp.Advance(x.cost - start)
		}
	}()
	for _, f := range files {
		if f.Partition != files[0].Partition {
			return DataFile{}, fmt.Errorf("%w: %s and %s", ErrPartitionSpan, files[0].Partition, f.Partition)
		}
	}
	w := colfile.NewWriter(x.t.meta.Schema, 0)
	var r colfile.Reader
	var cols []colfile.Column
	for _, f := range files {
		blob, cost, err := x.t.fs.ReadSpan(f.Path, msp)
		x.cost += cost
		if err == nil {
			err = r.Reset(blob)
		}
		for g := 0; err == nil && g < r.NumRowGroups(); g++ {
			if cols, err = r.ReadColumns(g, nil, cols); err == nil {
				err = w.AppendColumns(cols)
			}
			rows += int64(r.GroupRows(g))
		}
		if err != nil {
			return DataFile{}, err
		}
	}
	if rows > 0 {
		if merged, err = x.stage(w, files[0].Partition, rows, msp); err != nil {
			return DataFile{}, err
		}
	}
	for _, f := range files {
		x.RemoveFile(f)
	}
	return merged, nil
}

// stage finishes w as a data file of rows rows in partition, writes it
// and stages its addition. The write is a tableobj.write child of sp.
func (x *Txn) stage(w *colfile.Writer, partition string, rows int64, sp *obs.Span) (DataFile, error) {
	blob, err := w.Finish()
	if err != nil {
		w.Recycle()
		return DataFile{}, err
	}
	nf := x.t.meta.Schema.NumFields()
	f := DataFile{
		Path:      DataPath(x.t.meta.Path, partition, x.t.nextID()),
		Partition: partition,
		Rows:      rows,
		Bytes:     int64(len(blob)),
		Min:       make([]colfile.Value, nf),
		Max:       make([]colfile.Value, nf),
	}
	for c := range f.Min {
		f.Min[c], f.Max[c] = w.FileRange(c)
	}
	cost, err := x.t.fs.Write(f.Path, blob)
	w.Recycle() // Write copied blob into the file's log
	if err != nil {
		return DataFile{}, err
	}
	x.cost += cost
	if wsp := sp.Child("tableobj.write"); wsp != nil {
		wsp.SetAttr("kind", "data")
		wsp.SetAttr("bytes", strconv.Itoa(len(blob)))
		wsp.End(cost)
		sp.Advance(cost)
	}
	x.AddFile(f)
	x.written = append(x.written, f.Path)
	return f, nil
}

// Commit writes the commit file and the next snapshot's header, and
// publishes it with a catalog CAS. It returns that header: the
// snapshot's fields less Files and CommitIDs, which Current folds.
// ErrConflict reports a losing race with a concurrent writer; the
// staged files remain, and Write re-bases them. A removal the base no
// longer holds aborts the transaction with ErrFileGone: a DELETE, UPDATE
// or compaction planned on an older snapshot than it commits against
// would otherwise write rows another commit already moved (the
// compaction-vs-ingest conflict of Section VI-A).
//
// The header names the base's checkpoint and the commits since, this
// one included. When the bytes a fold would read past the checkpoint
// (those commit files and this header) reach the checkpoint's size, the
// commit also writes a new checkpoint, the base with this commit
// applied. So checkpoints at least double, and what a commit writes and
// a fold reads stays within a constant factor of the manifest.
func (x *Txn) Commit() (Snapshot, error) { return x.commit(nil) }

// metaFile is one metadata file a commit writes.
type metaFile struct {
	kind, path string
	blob       []byte
}

// commit is Commit recording a tableobj.commit child of parent, with its
// adds and removes, and one tableobj.write child per metadata file it
// writes, with the file's kind and bytes. A nil parent traces nothing.
func (x *Txn) commit(parent *obs.Span) (Snapshot, error) {
	sp, start := parent.Child("tableobj.commit"), x.cost
	defer func() {
		if sp != nil {
			sp.SetAttr("adds", strconv.Itoa(len(x.adds)))
			sp.SetAttr("removes", strconv.Itoa(len(x.removes)))
			sp.End(x.cost - start)
			parent.Advance(x.cost - start)
		}
	}()
	if x.finished {
		return Snapshot{}, errors.New("tableobj: transaction already finished")
	}
	if err := x.decodeBase(); err != nil {
		return Snapshot{}, err
	}
	now := x.t.clock.Now()
	id := x.t.nextID()
	var buf []byte // every metadata file's bytes, one after another
	select {
	case buf = <-idleMeta:
	default:
	}
	blob := appendFile(&buf, func(b []byte) []byte { return encodeCommit(b, id, now, x.adds, x.removes) })
	b := &x.base
	next := Manifest{kind: kindHeader,
		Snapshot:   Snapshot{ID: id, ParentID: b.ID, Timestamp: now, RowCount: b.RowCount},
		checkpoint: b.checkpoint, checkpointBytes: b.checkpointBytes, deltaBytes: b.deltaBytes + int64(len(blob)),
		since: append(b.since[:len(b.since):len(b.since)], id)}
	if len(x.removes) > 0 {
		if err := x.loadBase(sp); err != nil {
			return Snapshot{}, err
		}
		removed := make(map[string]bool, len(x.removes))
		for _, f := range x.removes {
			removed[f.Path] = true
		}
		for _, e := range x.manifest.Entries {
			if removed[e.Path] {
				delete(removed, e.Path)
				next.RemovedFiles++
				next.RemovedRows += e.Rows
			}
		}
		for _, f := range x.removes {
			if removed[f.Path] { // a concurrent commit removed it first
				x.Abort()
				return Snapshot{}, fmt.Errorf("%w: %s", ErrFileGone, f.Path)
			}
		}
	}
	for _, f := range x.adds {
		next.AddedFiles++
		next.AddedRows += f.Rows
	}
	next.RowCount += next.AddedRows - next.RemovedRows
	files := []metaFile{{"commit", CommitPath(x.t.meta.Path, id), blob}}
	header := appendFile(&buf, next.encode)
	if next.deltaBytes+int64(len(header)) >= next.checkpointBytes {
		// The base folded, then this commit applied, from a copy of its blob (buf is reused).
		if err := x.loadBase(sp); err != nil {
			return Snapshot{}, err
		}
		ck, _, err := fold(x.t.meta.Path, &next, x.manifest, func(string) ([]byte, time.Duration, error) { return slices.Clone(blob), 0, nil })
		if err != nil {
			return Snapshot{}, err
		}
		ck.kind = kindCheckpoint
		cblob := appendFile(&buf, ck.encode)
		files = append(files, metaFile{"checkpoint", checkpointPath(x.t.meta.Path, next.ID), cblob})
		next.checkpoint, next.checkpointBytes, next.deltaBytes, next.since = next.ID, int64(len(cblob)), 0, nil
		header = appendFile(&buf, next.encode)
	}
	files = append(files, metaFile{"snapshot", SnapshotPath(x.t.meta.Path, next.ID), header})
	for i, f := range files {
		cost, err := x.t.fs.Write(f.path, f.blob)
		if err != nil {
			x.withdraw(files[:i])
			return Snapshot{}, err
		}
		x.cost += cost
		if wsp := sp.Child("tableobj.write"); wsp != nil {
			wsp.SetAttr("kind", f.kind)
			wsp.SetAttr("bytes", strconv.Itoa(len(f.blob)))
			wsp.End(cost)
			sp.Advance(cost)
		}
	}
	if cap(buf) <= 64<<10 { // the files are stored: buf is free, unless a large checkpoint grew it
		select {
		case idleMeta <- buf[:0]:
		default:
		}
	}
	c3, err := x.t.cat.AdvanceSnapshot(x.t.meta.Name, b.ID, next.ID)
	x.cost += c3
	if err != nil {
		// Losing writer: withdraw this attempt's metadata files; staged
		// data files stay for Write to re-base.
		x.withdraw(files)
		return Snapshot{}, err
	}
	x.finished = true
	return next.Snapshot, nil
}

// withdraw deletes the metadata files an unpublished commit wrote.
func (x *Txn) withdraw(files []metaFile) {
	for _, f := range files {
		x.t.fs.Delete(f.path)
	}
}

// decodeBase decodes the base's header, once per base.
func (x *Txn) decodeBase() (err error) {
	if x.baseBlob != nil {
		if x.base, err = DecodeManifest(x.baseBlob); err == nil {
			x.baseBlob = nil
		}
	}
	return err
}

// loadBase folds the base's manifest, once per base, charging its reads
// to the transaction and sp's cursor.
func (x *Txn) loadBase(sp *obs.Span) error {
	if x.manifest != nil {
		return nil
	}
	if err := x.decodeBase(); err != nil {
		return err
	}
	m, cost, err := fold(x.t.meta.Path, &x.base, nil, x.t.fs.Read)
	x.cost += cost
	sp.Advance(cost)
	x.manifest = m
	return err
}

// Abort withdraws the transaction, deleting the data files it wrote. A
// file staged with AddFile is its writer's, and stays.
func (x *Txn) Abort() error {
	if x.finished {
		return nil
	}
	x.finished = true
	for _, p := range x.written {
		if err := x.t.fs.Delete(p); err != nil && !errors.Is(err, ErrNotFound) {
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
	return cost + t.cat.HardDrop(t.meta.Name), nil
}

// ExpireSnapshots deletes the snapshots older than keepAfter on the
// current snapshot's parent chain, with the data files only they
// reference, and with their commit files and checkpoints unless a
// retained snapshot's fold reads them. The current snapshot is always
// retained. It returns the number of snapshots expired.
func (t *Table) ExpireSnapshots(keepAfter time.Duration) (int, error) {
	id, err := t.cat.SnapshotPointer(t.meta.Name)
	// The chain, newest first, as far back as headers remain. Timestamps
	// fall along it, so the retained snapshots are a prefix.
	var chain []Manifest
	for err == nil && id != 0 {
		var h Manifest
		if h, _, err = t.header(id); err == nil {
			chain, id = append(chain, h), h.ParentID
		}
	}
	if len(chain) == 0 {
		return 0, err
	}
	keep := 1
	for keep < len(chain) && chain[keep].Timestamp >= keepAfter {
		keep++
	}
	// Every file a snapshot of the chain reads, true where a retained
	// one reads it.
	live := map[string]bool{}
	for _, h := range chain[:keep] {
		live[checkpointPath(t.meta.Path, h.checkpoint)] = true
		for _, c := range append([]int64{h.ID}, h.since...) {
			live[CommitPath(t.meta.Path, c)] = true
		}
	}
	var memo *Manifest
	for i := len(chain) - 1; i >= 0; i-- { // oldest first, each over the last
		if memo, _, err = fold(t.meta.Path, &chain[i], memo, t.fs.Read); err != nil {
			return 0, err
		}
		for _, e := range memo.Entries {
			live[e.Path] = live[e.Path] || i < keep
		}
	}
	var gone []string
	for p, l := range live {
		if !l {
			gone = append(gone, p)
		}
	}
	for _, v := range chain[keep:] {
		for _, p := range []string{SnapshotPath(t.meta.Path, v.ID), CommitPath(t.meta.Path, v.ID), checkpointPath(t.meta.Path, v.ID)} {
			if !live[p] {
				gone = append(gone, p)
			}
		}
	}
	sort.Strings(gone)
	for _, p := range gone {
		t.fs.Delete(p)
	}
	return len(chain) - keep, nil
}
