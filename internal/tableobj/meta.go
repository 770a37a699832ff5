package tableobj

import (
	"encoding/binary"
	"errors"
	"fmt"
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

	// Zones are optional per-row-group value ranges (zone maps): finer
	// statistics than Min/Max that let planning prune a file when no
	// single row group can satisfy a predicate, even though the file's
	// overall range overlaps it. Empty on files written without zone
	// maps enabled.
	Zones []ZoneMap
	// Blooms are optional per-column membership filters consulted by
	// equality predicates; nil entries mean no filter for that column.
	Blooms []*Bloom
}

// ZoneMap is one row group's per-column value range, aligned with the
// table schema.
type ZoneMap struct {
	Min, Max []colfile.Value
}

// Overlaps reports whether the file's value range for column c can
// intersect [lo, hi] (nil bounds are unbounded).
func (f DataFile) Overlaps(c int, lo, hi *colfile.Value) bool {
	if c < 0 || c >= len(f.Min) {
		return true // no stats for the column: cannot skip
	}
	return colfile.RangeOverlaps(f.Min[c], f.Max[c], lo, hi)
}

// FileOp is one entry in a commit: a data file added or removed.
type FileOp struct {
	Add  bool
	File DataFile
}

// Commit is the paper's commit file: file-level metadata and statistics
// recording the changes of one insert/update/delete operation.
type Commit struct {
	ID        int64
	Timestamp time.Duration
	Ops       []FileOp
}

// Snapshot is the paper's snapshot index file: the set of valid commits
// for a time period, the current complete file manifest, and operation
// log statistics (rows/files added and removed).
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

// statsV2Marker introduces the extended stats encoding (zone maps and
// bloom filters appended after the legacy min/max pairs). The legacy
// encoding starts with a uvarint column count, whose first byte is 0xFF
// only for a multi-byte count of 255, 383, … columns — no real schema —
// and such a count is written in the v2 encoding, so the marker is
// unambiguous. Other files with no zones and no blooms keep the legacy
// encoding byte-for-byte, which keeps metadata (and replay digests)
// identical when zone maps are off.
const statsV2Marker = 0xFF

func encodeStats(f DataFile) string {
	var buf []byte
	var count [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(count[:], uint64(len(f.Min)))
	v2 := len(f.Zones) > 0 || len(f.Blooms) > 0 || count[0] == statsV2Marker
	if v2 {
		buf = append(buf, statsV2Marker)
	}
	buf = append(buf, count[:n]...)
	for i := range f.Min {
		buf = colfile.AppendValue(buf, f.Min[i])
		buf = colfile.AppendValue(buf, f.Max[i])
	}
	if !v2 {
		return string(buf)
	}
	buf = binary.AppendUvarint(buf, uint64(len(f.Zones)))
	for _, z := range f.Zones {
		buf = binary.AppendUvarint(buf, uint64(len(z.Min)))
		for i := range z.Min {
			buf = colfile.AppendValue(buf, z.Min[i])
			buf = colfile.AppendValue(buf, z.Max[i])
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(f.Blooms)))
	for _, b := range f.Blooms {
		buf = appendBloom(buf, b)
	}
	return string(buf)
}

func decodeStats(data []byte, f *DataFile) error {
	v2 := len(data) > 0 && data[0] == statsV2Marker
	if v2 {
		data = data[1:]
	}
	var err error
	f.Min, f.Max, data, err = readRange(data)
	if err != nil {
		return err
	}
	if !v2 {
		return nil
	}
	groups, sz := binary.Uvarint(data)
	if sz <= 0 {
		return errors.New("tableobj: truncated zone maps")
	}
	data = data[sz:]
	// Untrusted count: each zone costs at least one byte.
	if groups > uint64(len(data))+1 {
		return errors.New("tableobj: zone count exceeds stats size")
	}
	for i := uint64(0); i < groups; i++ {
		var z ZoneMap
		z.Min, z.Max, data, err = readRange(data)
		if err != nil {
			return err
		}
		f.Zones = append(f.Zones, z)
	}
	cols, sz := binary.Uvarint(data)
	if sz <= 0 {
		return errors.New("tableobj: truncated bloom list")
	}
	data = data[sz:]
	if cols > uint64(len(data))+1 {
		return errors.New("tableobj: bloom count exceeds stats size")
	}
	for i := uint64(0); i < cols; i++ {
		var b *Bloom
		b, data, err = readBloom(data)
		if err != nil {
			return err
		}
		f.Blooms = append(f.Blooms, b)
	}
	return nil
}

// readRange parses one count-prefixed sequence of min/max value pairs.
func readRange(data []byte) (min, max []colfile.Value, rest []byte, err error) {
	n, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, nil, nil, errors.New("tableobj: truncated stats")
	}
	data = data[sz:]
	// Untrusted count: a pair costs at least four bytes.
	if n > uint64(len(data))/4 {
		return nil, nil, nil, errors.New("tableobj: range count exceeds stats size")
	}
	if n == 0 {
		return nil, nil, data, nil
	}
	vals := make([]colfile.Value, 2*n) // one allocation for both bounds
	min, max = vals[:n:n], vals[n:]
	for i := range min {
		if min[i], data, err = colfile.ReadValue(data); err != nil {
			return nil, nil, nil, err
		}
		if max[i], data, err = colfile.ReadValue(data); err != nil {
			return nil, nil, nil, err
		}
	}
	return min, max, data, nil
}

func fileToRow(op string, f DataFile) colfile.Row {
	return colfile.Row{
		colfile.StringValue(op),
		colfile.StringValue(f.Path),
		colfile.StringValue(f.Partition),
		colfile.IntValue(f.Rows),
		colfile.IntValue(f.Bytes),
		colfile.StringValue(encodeStats(f)),
	}
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

// entryOf is the inverse of fileToRow less its op column.
func entryOf(r colfile.Row) ManifestEntry {
	return ManifestEntry{Path: r[0].Str, Partition: r[1].Str, Rows: r[2].Int, Bytes: r[3].Int, stats: []byte(r[4].Str)}
}

// File decodes the entry's full DataFile, with fresh value slices.
func (m ManifestEntry) File() (DataFile, error) {
	f := DataFile{Path: m.Path, Partition: m.Partition, Rows: m.Rows, Bytes: m.Bytes}
	if err := decodeStats(m.stats, &f); err != nil {
		return DataFile{}, err
	}
	return f, nil
}

// Extended reports whether the stats may carry zone maps and blooms.
func (m ManifestEntry) Extended() bool { return len(m.stats) > 0 && m.stats[0] == statsV2Marker }

// Overlaps is File().Overlaps reading only column c's pair. Stats it
// cannot parse cannot skip the file; File reports their error.
func (m ManifestEntry) Overlaps(c int, lo, hi *colfile.Value) bool {
	data := m.stats
	if m.Extended() {
		data = data[1:]
	}
	n, sz := binary.Uvarint(data)
	if sz <= 0 || c < 0 || uint64(c) >= n {
		return true
	}
	data = data[sz:]
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

// EncodeCommit serializes a commit file.
func EncodeCommit(c Commit) ([]byte, error) {
	var hdr []byte
	hdr = binary.AppendVarint(hdr, c.ID)
	hdr = binary.AppendVarint(hdr, int64(c.Timestamp))
	rows := make([]colfile.Row, len(c.Ops))
	for i, op := range c.Ops {
		kind := "add"
		if !op.Add {
			kind = "remove"
		}
		rows[i] = fileToRow(kind, op.File)
	}
	batch, err := rowcodec.Encode(commitSchema, rows)
	if err != nil {
		return nil, err
	}
	return append(hdr, batch...), nil
}

// DecodeCommit parses a commit file.
func DecodeCommit(data []byte) (Commit, error) {
	var c Commit
	id, sz := binary.Varint(data)
	if sz <= 0 {
		return c, errors.New("tableobj: truncated commit id")
	}
	data = data[sz:]
	ts, sz := binary.Varint(data)
	if sz <= 0 {
		return c, errors.New("tableobj: truncated commit timestamp")
	}
	data = data[sz:]
	c.ID, c.Timestamp = id, time.Duration(ts)
	schema, rows, err := rowcodec.Decode(data)
	if err != nil {
		return c, err
	}
	if !schema.Equal(commitSchema) {
		return c, errors.New("tableobj: commit batch has wrong schema")
	}
	for _, r := range rows {
		f, err := entryOf(r[1:]).File()
		if err != nil {
			return c, err
		}
		c.Ops = append(c.Ops, FileOp{Add: r[0].Str == "add", File: f})
	}
	return c, nil
}

var snapshotFileSchema = colfile.MustSchema(
	"path:string", "partition:string", "rows:int64", "bytes:int64", "stats:string")

// EncodeSnapshot serializes a snapshot index file.
func EncodeSnapshot(s Snapshot) ([]byte, error) {
	var hdr []byte
	for _, v := range []int64{s.ID, s.ParentID, int64(s.Timestamp), s.RowCount,
		s.AddedFiles, s.RemovedFiles, s.AddedRows, s.RemovedRows} {
		hdr = binary.AppendVarint(hdr, v)
	}
	hdr = binary.AppendUvarint(hdr, uint64(len(s.CommitIDs)))
	for _, id := range s.CommitIDs {
		hdr = binary.AppendVarint(hdr, id)
	}
	rows := make([]colfile.Row, len(s.Files))
	for i, f := range s.Files {
		r := fileToRow("", f)
		rows[i] = r[1:] // drop the op column
	}
	batch, err := rowcodec.Encode(snapshotFileSchema, rows)
	if err != nil {
		return nil, err
	}
	return append(hdr, batch...), nil
}

// Manifest is the manifest form of a snapshot: the header, with Files
// left nil, and one entry per data file whose statistics stay encoded.
type Manifest struct {
	Snapshot
	Entries []ManifestEntry
}

// DecodeSnapshot parses a snapshot index file: DecodeManifest, then
// File for every entry.
func DecodeSnapshot(data []byte) (Snapshot, error) {
	m, err := DecodeManifest(data)
	s := m.Snapshot
	if len(m.Entries) > 0 {
		s.Files = make([]DataFile, len(m.Entries))
	}
	for i := 0; i < len(m.Entries) && err == nil; i++ {
		s.Files[i], err = m.Entries[i].File()
	}
	return s, err
}

// DecodeManifest parses a snapshot index file but no file's stats: it
// accepts stats DecodeSnapshot refuses, and their entry's File fails.
func DecodeManifest(data []byte) (Manifest, error) {
	var m Manifest
	s := &m.Snapshot
	read := func() (int64, error) {
		v, sz := binary.Varint(data)
		if sz <= 0 {
			return 0, errors.New("tableobj: truncated snapshot header")
		}
		data = data[sz:]
		return v, nil
	}
	fields := []*int64{&s.ID, &s.ParentID, nil, &s.RowCount, &s.AddedFiles, &s.RemovedFiles, &s.AddedRows, &s.RemovedRows}
	for i, p := range fields {
		v, err := read()
		if err != nil {
			return m, err
		}
		if i == 2 {
			s.Timestamp = time.Duration(v)
		} else {
			*p = v
		}
	}
	n, sz := binary.Uvarint(data)
	if sz <= 0 {
		return m, errors.New("tableobj: truncated commit list")
	}
	data = data[sz:]
	for i := uint64(0); i < n; i++ {
		id, err := read()
		if err != nil {
			return m, err
		}
		s.CommitIDs = append(s.CommitIDs, id)
	}
	schema, rows, err := rowcodec.Decode(data)
	if err != nil {
		return m, err
	}
	if !schema.Equal(snapshotFileSchema) {
		return m, errors.New("tableobj: snapshot batch has wrong schema")
	}
	m.Entries = make([]ManifestEntry, len(rows))
	for i, r := range rows {
		m.Entries[i] = entryOf(r)
	}
	return m, nil
}

// CommitPath returns the metadata path of commit id under tablePath.
func CommitPath(tablePath string, id int64) string {
	return fmt.Sprintf("%s/metadata/commits/%012d.avro", tablePath, id)
}

// SnapshotPath returns the metadata path of snapshot id under tablePath.
func SnapshotPath(tablePath string, id int64) string {
	return fmt.Sprintf("%s/metadata/snapshots/%012d.idx", tablePath, id)
}

// DataPath returns the data-file path for a partition and file id.
func DataPath(tablePath, partition string, id int64) string {
	if partition == "" {
		partition = "default"
	}
	return fmt.Sprintf("%s/data/%s/%012d.col", tablePath, partition, id)
}
