package tableobj

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"streamlake/internal/colfile"
	"streamlake/internal/rowcodec"
)

// DataFile is the file-level metadata a commit records: path, partition,
// record counts and per-column value ranges (the statistics commits
// carry for data skipping at the file level).
type DataFile struct {
	Path      string
	Partition string
	Rows      int64
	Bytes     int64
	Min, Max  []colfile.Value // aligned with the table schema
}

// Overlaps reports whether the file's value range for column c can
// intersect [lo, hi] (nil bounds are unbounded).
func (f DataFile) Overlaps(c int, lo, hi *colfile.Value) bool {
	if c < 0 || c >= len(f.Min) {
		return true // no stats for the column: cannot skip
	}
	return colfile.RangeOverlaps(f.Min[c], f.Max[c], lo, hi)
}

// Snapshot is the paper's snapshot index: the set of valid commits for
// a time period, the current complete file manifest, and operation log
// statistics (rows/files added and removed). On disk it is a small
// header over the commit files; see Manifest.
type Snapshot struct {
	ID           int64
	ParentID     int64
	Timestamp    time.Duration
	CommitIDs    []int64
	Files        []DataFile
	RowCount     int64
	AddedFiles   int64
	RemovedFiles int64
	AddedRows    int64
	RemovedRows  int64
}

var commitSchema = colfile.MustSchema(
	"op:string", "path:string", "partition:string", "rows:int64", "bytes:int64", "stats:string")

// encodeStats appends f's statistics to buf: a uvarint column count,
// then each column's min and max.
func encodeStats(buf []byte, f DataFile) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(f.Min)))
	for i := range f.Min {
		buf = colfile.AppendValue(colfile.AppendValue(buf, f.Min[i]), f.Max[i])
	}
	return buf
}

// decodeStats parses encodeStats's bytes into f, or unless keep only
// walks them, allocating nothing: both fail on exactly the same bytes.
func decodeStats(data []byte, f *DataFile, keep bool) (err error) {
	n, sz := binary.Uvarint(data)
	if sz <= 0 {
		return errors.New("tableobj: truncated stats")
	}
	data = data[sz:]
	// Untrusted count: a pair costs at least four bytes.
	if n > uint64(len(data))/4 {
		return errors.New("tableobj: range count exceeds stats size")
	}
	if !keep {
		for i := uint64(0); i < 2*n && err == nil; i++ {
			data, err = colfile.SkipValue(data)
		}
		return err
	}
	if n == 0 {
		return nil
	}
	vals := make([]colfile.Value, 2*n) // one allocation for both bounds
	f.Min, f.Max = vals[:n:n], vals[n:]
	for i := range f.Min {
		if f.Min[i], data, err = colfile.ReadValue(data); err != nil {
			return err
		}
		if f.Max[i], data, err = colfile.ReadValue(data); err != nil {
			return err
		}
	}
	return nil
}

// ManifestEntry is one data file of a Manifest, its statistics kept
// encoded: Overlaps reads them in place, File decodes the DataFile.
type ManifestEntry struct {
	Path      string
	Partition string
	Rows      int64
	Bytes     int64
	stats     []byte // encodeStats's bytes
}

// appendEntry appends an entry's row but its stats: a checkpoint row's
// fields, which a commit row has after its op.
func appendEntry(b []byte, path, partition string, rows, bytes int64) []byte {
	b = rowcodec.AppendField(rowcodec.AppendField(b, colfile.StringValue(path)), colfile.StringValue(partition))
	return rowcodec.AppendField(rowcodec.AppendField(b, colfile.IntValue(rows)), colfile.IntValue(bytes))
}

// idleMeta holds the buffer a commit encodes its metadata files into, a
// channel as colfile's idle compressor is. FileStore.Write stores a copy,
// so the buffer is free again once the files are written.
var idleMeta = make(chan []byte, 1)

// appendFile appends what enc appends to *buf and returns it, as a slice
// that later appends leave alone.
func appendFile(buf *[]byte, enc func([]byte) []byte) []byte {
	at := len(*buf)
	*buf = enc(*buf)
	return (*buf)[at:len(*buf):len(*buf)]
}

// File decodes the entry's full DataFile, with fresh value slices.
func (m ManifestEntry) File() (DataFile, error) {
	f := DataFile{Path: m.Path, Partition: m.Partition, Rows: m.Rows, Bytes: m.Bytes}
	if err := decodeStats(m.stats, &f, true); err != nil {
		return DataFile{}, err
	}
	return f, nil
}

// Check walks the entry's statistics as File decodes them, allocating
// nothing, and fails exactly where File would.
func (m ManifestEntry) Check() error { return decodeStats(m.stats, &DataFile{}, false) }

// Overlaps is File().Overlaps reading only column c's pair. Stats it
// cannot parse cannot skip the file; File reports their error.
func (m ManifestEntry) Overlaps(c int, lo, hi *colfile.Value) bool {
	n, sz := binary.Uvarint(m.stats)
	if sz <= 0 || c < 0 || uint64(c) >= n {
		return true
	}
	data := m.stats[sz:]
	var err error
	for i := 0; i < 2*c && err == nil; i++ {
		data, err = colfile.SkipValue(data)
	}
	var min, max colfile.Value
	if err == nil {
		min, data, err = colfile.ReadValue(data)
	}
	if err == nil {
		max, _, err = colfile.ReadValue(data)
	}
	return err != nil || colfile.RangeOverlaps(min, max, lo, hi)
}

// encodeCommit appends the commit file of commit id at ts to b: the id
// and timestamp, then a batch of one row per file added, then per file
// removed.
func encodeCommit(b []byte, id int64, ts time.Duration, adds, removes []DataFile) []byte {
	b = binary.AppendVarint(binary.AppendVarint(b, id), int64(ts))
	b = rowcodec.AppendHeader(b, commitSchema, len(adds)+len(removes))
	for k, files := range [2][]DataFile{adds, removes} {
		for _, f := range files {
			b = rowcodec.AppendField(b, colfile.StringValue([2]string{"add", "remove"}[k]))
			var stats [256]byte // most files' stats fit
			b = rowcodec.AppendString(appendEntry(b, f.Path, f.Partition, f.Rows, f.Bytes), encodeStats(stats[:0], f))
		}
	}
	return b
}

// decodeCommit parses a commit file, handing fn each op's entry as it
// decodes it: stats borrowed from data, as the path is, and checked, so
// stats File could not decode fail here. It returns the commit's id.
func decodeCommit(data []byte, fn func(add bool, e ManifestEntry)) (int64, error) {
	id, sz := binary.Varint(data)
	if sz <= 0 {
		return 0, errors.New("tableobj: truncated commit id")
	}
	data = data[sz:]
	if _, sz = binary.Varint(data); sz <= 0 {
		return 0, errors.New("tableobj: truncated commit timestamp")
	}
	var d rowcodec.Decoder
	if err := d.Reset(data[sz:]); err != nil {
		return 0, err
	}
	if !d.Schema.Equal(commitSchema) {
		return 0, errors.New("tableobj: commit batch has wrong schema")
	}
	var row [6]colfile.Value
	for d.Len() > 0 {
		if err := d.Next(row[:]); err != nil {
			return 0, err
		}
		r := row[1:] // the checkpoint row's fields, which borrow from data
		e := ManifestEntry{Path: r[0].Str, Partition: r[1].Str, Rows: r[2].Int, Bytes: r[3].Int, stats: rowcodec.Bytes(r[4].Str)}
		if err := e.Check(); err != nil {
			return 0, err
		}
		fn(row[0].Str == "add", e)
	}
	return id, nil
}

var snapshotFileSchema = colfile.MustSchema(
	"path:string", "partition:string", "rows:int64", "bytes:int64", "stats:string")

// A snapshot metadata file begins with its kind: a header (under
// /metadata/snapshots) or a checkpoint (under /metadata/checkpoints).
const (
	kindHeader     = 'H'
	kindCheckpoint = 'C'
)

// Manifest is the manifest form of a snapshot: the header, with Files
// left nil, and one entry per data file whose statistics stay encoded.
// On disk a snapshot is a header naming a checkpoint (a full manifest an
// earlier commit wrote, 0 for the empty table) and the commits since it;
// LoadManifest folds them.
type Manifest struct {
	Snapshot
	Entries []ManifestEntry

	kind byte
	// checkpoint is the snapshot whose checkpoint this one folds from, of
	// checkpointBytes bytes; since lists the commits after it, oldest
	// first, whose files total deltaBytes. A checkpoint folds from itself.
	checkpoint, checkpointBytes, deltaBytes int64
	since                                   []int64
}

// encode appends m to b as its kind: the snapshot fields, then a
// header's checkpoint, sizes and commits since, or a checkpoint's commit
// ids and entries.
func (m *Manifest) encode(b []byte) []byte {
	s, ids := m.Snapshot, m.CommitIDs
	fields := [...]int64{s.ID, s.ParentID, int64(s.Timestamp), s.RowCount, s.AddedFiles, s.RemovedFiles, s.AddedRows, s.RemovedRows,
		m.checkpoint, m.checkpointBytes, m.deltaBytes}
	nf := 8
	if m.kind == kindHeader {
		nf, ids = len(fields), m.since
	}
	b = append(b, m.kind)
	for _, v := range fields[:nf] {
		b = binary.AppendVarint(b, v)
	}
	b = binary.AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = binary.AppendVarint(b, id)
	}
	if m.kind == kindHeader {
		return b
	}
	b = rowcodec.AppendHeader(b, snapshotFileSchema, len(m.Entries))
	for _, e := range m.Entries {
		b = rowcodec.AppendString(appendEntry(b, e.Path, e.Partition, e.Rows, e.Bytes), e.stats)
	}
	return b
}

// snapshot is m with every entry's DataFile decoded.
func (m *Manifest) snapshot() (Snapshot, error) {
	s := m.Snapshot
	if len(m.Entries) > 0 {
		s.Files = make([]DataFile, len(m.Entries))
	}
	var err error
	for i := 0; i < len(m.Entries) && err == nil; i++ {
		s.Files[i], err = m.Entries[i].File()
	}
	return s, err
}

// DecodeManifest parses a header or a checkpoint, but no file's stats:
// an entry whose stats do not parse fails its File.
func DecodeManifest(data []byte) (Manifest, error) {
	var m Manifest
	if len(data) == 0 || data[0] != kindHeader && data[0] != kindCheckpoint {
		return m, errors.New("tableobj: not a snapshot file")
	}
	// A checkpoint's size is its own; a header reads its checkpoint's.
	m.kind, m.checkpointBytes, data = data[0], int64(len(data)), data[1:]
	var err error
	read := func() int64 {
		v, sz := binary.Varint(data)
		if sz <= 0 && err == nil {
			err = errors.New("tableobj: truncated snapshot header")
		}
		data = data[max(sz, 0):]
		return v
	}
	s := &m.Snapshot
	fields := []*int64{&s.ID, &s.ParentID, (*int64)(&s.Timestamp), &s.RowCount, &s.AddedFiles, &s.RemovedFiles, &s.AddedRows, &s.RemovedRows}
	if m.kind == kindHeader {
		fields = append(fields, &m.checkpoint, &m.checkpointBytes, &m.deltaBytes)
	}
	for _, p := range fields {
		*p = read()
	}
	n, sz := binary.Uvarint(data)
	if err != nil || sz <= 0 || n > uint64(len(data)) { // an id costs a byte at least
		return m, errors.New("tableobj: truncated snapshot header")
	}
	data = data[sz:]
	var ids []int64
	for i := uint64(0); i < n && err == nil; i++ {
		ids = append(ids, read())
	}
	if m.kind == kindHeader && err == nil && len(data) > 0 {
		err = errors.New("tableobj: trailing bytes after snapshot header")
	}
	if m.kind == kindHeader || err != nil {
		m.since = ids
		return m, err
	}
	s.CommitIDs, m.checkpoint = ids, s.ID
	var d rowcodec.Decoder
	if err := d.Reset(data); err != nil {
		return m, err
	}
	if !d.Schema.Equal(snapshotFileSchema) {
		return m, errors.New("tableobj: snapshot batch has wrong schema")
	}
	// The untrusted count sizes Entries, clamped: a row costs 5 bytes.
	m.Entries = make([]ManifestEntry, 0, min(d.Len(), len(data)/5))
	var r [5]colfile.Value // path, partition and stats borrow from data
	for d.Len() > 0 {
		if err := d.Next(r[:]); err != nil {
			return m, err
		}
		m.Entries = append(m.Entries, ManifestEntry{Path: r[0].Str, Partition: r[1].Str, Rows: r[2].Int, Bytes: r[3].Int, stats: rowcodec.Bytes(r[4].Str)})
	}
	return m, nil
}

// LoadManifest returns the manifest of snapshot id of the table under
// tablePath, reading each file through read: the snapshot's header, then
// the checkpoint it builds on and the commits since. A memo of snapshot
// id is returned as is after the header read; a memo of an earlier
// snapshot over the same checkpoint spares the reads of the checkpoint
// and of the commits it holds.
func LoadManifest(tablePath string, id int64, memo *Manifest, read func(path string) ([]byte, time.Duration, error)) (*Manifest, time.Duration, error) {
	blob, cost, err := read(SnapshotPath(tablePath, id))
	if err != nil {
		return nil, cost, err
	}
	if memo != nil && memo.ID == id {
		return memo, cost, nil
	}
	h, err := DecodeManifest(blob)
	if err != nil {
		return nil, cost, err
	}
	m, c, err := fold(tablePath, &h, memo, read)
	return m, cost + c, err
}

// fold applies header h's commits, in order, to its checkpoint, or to
// memo when memo is an earlier snapshot of the same run of commits. A
// commit drops the files it removes from the manifest before it, then
// appends those it adds: so a file survives the run unless a later
// commit removes it.
func fold(tablePath string, h, memo *Manifest, read func(string) ([]byte, time.Duration, error)) (*Manifest, time.Duration, error) {
	m, since := *h, h.since
	var cost time.Duration
	if memo != nil && memo.checkpoint == h.checkpoint && len(memo.since) <= len(since) &&
		slices.Equal(memo.since, since[:len(memo.since)]) {
		m.Entries, m.CommitIDs, since = memo.Entries, memo.CommitIDs, since[len(memo.since):]
	} else if h.checkpoint != 0 {
		blob, c, err := read(checkpointPath(tablePath, h.checkpoint))
		cost += c
		var ck Manifest
		if err == nil {
			ck, err = DecodeManifest(blob)
		}
		if err == nil && (ck.kind != kindCheckpoint || ck.ID != h.checkpoint) {
			err = fmt.Errorf("tableobj: checkpoint file %d holds snapshot %d", h.checkpoint, ck.ID)
		}
		if err != nil {
			return nil, cost, err
		}
		m.Entries, m.CommitIDs = ck.Entries, ck.CommitIDs
	}
	var adds []ManifestEntry
	var addedAt []int
	removedAt := map[string]int{} // path → the last commit that removed it
	for i, id := range since {
		blob, c, err := read(CommitPath(tablePath, id))
		cost += c
		var got int64
		if err == nil {
			got, err = decodeCommit(blob, func(add bool, e ManifestEntry) {
				if add {
					adds, addedAt = append(adds, e), append(addedAt, i)
				} else {
					removedAt[e.Path] = i
				}
			})
		}
		if err == nil && got != id {
			err = fmt.Errorf("tableobj: commit file %d holds commit %d", id, got)
		}
		if err != nil {
			return nil, cost, err
		}
	}
	if len(adds) > 0 || len(removedAt) > 0 {
		out := make([]ManifestEntry, 0, len(m.Entries)+len(adds))
		for _, e := range m.Entries {
			if _, gone := removedAt[e.Path]; !gone {
				out = append(out, e)
			}
		}
		for i, e := range adds {
			if at, gone := removedAt[e.Path]; !gone || at <= addedAt[i] {
				out = append(out, e)
			}
		}
		m.Entries = out
	}
	m.CommitIDs = append(m.CommitIDs[:len(m.CommitIDs):len(m.CommitIDs)], since...)
	return &m, cost, nil
}

// CommitPath returns the metadata path of commit id under tablePath.
func CommitPath(tablePath string, id int64) string {
	return fmt.Sprintf("%s/metadata/commits/%012d.avro", tablePath, id)
}

// SnapshotPath returns the metadata path of snapshot id's header under
// tablePath.
func SnapshotPath(tablePath string, id int64) string {
	return fmt.Sprintf("%s/metadata/snapshots/%012d.idx", tablePath, id)
}

// checkpointPath returns the metadata path of the checkpoint written at
// snapshot id under tablePath.
func checkpointPath(tablePath string, id int64) string {
	return fmt.Sprintf("%s/metadata/checkpoints/%012d.idx", tablePath, id)
}

// DataPath returns the data-file path for a partition and file id.
func DataPath(tablePath, partition string, id int64) string {
	if partition == "" {
		partition = "default"
	}
	return fmt.Sprintf("%s/data/%s/%012d.col", tablePath, partition, id)
}
