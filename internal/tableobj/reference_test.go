package tableobj

import (
	"encoding/binary"
	"errors"
	"time"

	"streamlake/internal/colfile"
	"streamlake/internal/rowcodec"
)

// The metadata codec as it was before its files were encoded and folded
// without Value rows: each row a colfile.Row, encoded and decoded by
// rowcodec.Encode and Decode. It is the reference the fuzz targets hold
// encodeCommit, decodeCommit, Manifest.encode and DecodeManifest to.

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

// opFiles is the files c adds, or removes.
func opFiles(c Commit, add bool) (files []DataFile) {
	for _, op := range c.Ops {
		if op.Add == add {
			files = append(files, op.File)
		}
	}
	return files
}

// addsFirst is c with its ops in the order a commit file lists them:
// every add, then every remove.
func addsFirst(c Commit) Commit {
	ops := c.Ops
	c.Ops = nil
	for _, add := range []bool{true, false} {
		for _, op := range ops {
			if op.Add == add {
				c.Ops = append(c.Ops, op)
			}
		}
	}
	return c
}

// encodeOps is encodeCommit of c's ops.
func encodeOps(c Commit) []byte {
	return encodeCommit(nil, c.ID, c.Timestamp, opFiles(c, true), opFiles(c, false))
}

func fileToRow(op string, f DataFile) colfile.Row {
	return colfile.Row{
		colfile.StringValue(op),
		colfile.StringValue(f.Path),
		colfile.StringValue(f.Partition),
		colfile.IntValue(f.Rows),
		colfile.IntValue(f.Bytes),
		colfile.StringValue(string(encodeStats(nil, f))),
	}
}

// entryOf is the inverse of fileToRow less its op column.
func entryOf(r colfile.Row) ManifestEntry {
	return ManifestEntry{Path: r[0].Str, Partition: r[1].Str, Rows: r[2].Int, Bytes: r[3].Int, stats: []byte(r[4].Str)}
}

// entryOfFile is f's entry, its statistics encoded.
func entryOfFile(f DataFile) ManifestEntry {
	return ManifestEntry{Path: f.Path, Partition: f.Partition, Rows: f.Rows, Bytes: f.Bytes, stats: encodeStats(nil, f)}
}

// refEncodeCommit serializes a commit file.
func refEncodeCommit(c Commit) ([]byte, error) {
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

// DecodeCommit parses a commit file, every file's stats decoded.
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

// refEncodeManifest serializes m as its kind.
func refEncodeManifest(m *Manifest) ([]byte, error) {
	s, ids := m.Snapshot, m.CommitIDs
	fields := []int64{s.ID, s.ParentID, int64(s.Timestamp), s.RowCount, s.AddedFiles, s.RemovedFiles, s.AddedRows, s.RemovedRows}
	if m.kind == kindHeader {
		fields, ids = append(fields, m.checkpoint, m.checkpointBytes, m.deltaBytes), m.since
	}
	b := []byte{m.kind}
	for _, v := range fields {
		b = binary.AppendVarint(b, v)
	}
	b = binary.AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = binary.AppendVarint(b, id)
	}
	if m.kind == kindHeader {
		return b, nil
	}
	rows := make([]colfile.Row, len(m.Entries))
	for i, e := range m.Entries {
		rows[i] = colfile.Row{colfile.StringValue(e.Path), colfile.StringValue(e.Partition),
			colfile.IntValue(e.Rows), colfile.IntValue(e.Bytes), colfile.StringValue(string(e.stats))}
	}
	batch, err := rowcodec.Encode(snapshotFileSchema, rows)
	return append(b, batch...), err
}

// refDecodeManifest parses a header or a checkpoint, but no file's stats:
// an entry whose stats do not parse fails its File.
func refDecodeManifest(data []byte) (Manifest, error) {
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
