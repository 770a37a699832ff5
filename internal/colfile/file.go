package colfile

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"
)

// File layout:
//
//	magic "SLCF" | version u8
//	row-group chunks, column-major within each group
//	footer: schema, row-group directory (offsets, lengths, stats)
//	footer length u32 | magic "SLCF"
//
// The footer carries per-row-group, per-column min/max/count statistics —
// the "footers in the Parquet files contain statistics to support data
// skipping within the file" of Section IV-B.

var magic = []byte("SLCF")

const version = 1

// DefaultRowGroupSize is the default rows per group.
const DefaultRowGroupSize = 8192

// Stats summarizes one column within one row group.
type Stats struct {
	Min, Max Value
	Count    int64
}

// Overlaps reports whether a value range [lo, hi] (inclusive; either may
// be nil for unbounded) can intersect this column's values, the data
// skipping primitive.
func (s Stats) Overlaps(lo, hi *Value) bool {
	return s.Count > 0 && RangeOverlaps(s.Min, s.Max, lo, hi)
}

// RangeOverlaps reports whether [min, max] can intersect [lo, hi], nil
// bounds unbounded.
func RangeOverlaps(min, max Value, lo, hi *Value) bool {
	return (lo == nil || Compare(max, *lo) >= 0) && (hi == nil || Compare(min, *hi) <= 0)
}

type chunkRef struct {
	offset int64
	length int64
}

type groupMeta struct {
	rows   int
	chunks []chunkRef
	stats  []Stats
}

// Writer encodes rows into a columnar file as they arrive: a value is
// in its column's chunk once the append that brought it returns, so the
// caller may reuse what it passed.
type Writer struct {
	schema    Schema
	groupSize int
	buf       bytes.Buffer
	lease     *fileLease // the shared file buffer buf began in, until Recycle
	pending   int        // rows in the open group
	groups    []groupMeta
	finished  bool
	cols      []colEncoder // taken at the first row, released by Finish
}

// idleCompressor keeps the DEFLATE compressor (≈1.2 MB to build) every
// writer borrows for a row-group flush, so open writers share one.
// idleColumns keeps finished files' column encoders, as many as a
// conversion holds partition files open. Channels, not sync.Pools, so
// the heap holds the same ones however collections fell; they hold no
// writer's buffer and no string.
var (
	idleCompressor = make(chan *flate.Writer, 1)
	idleColumns    = make(chan []colEncoder, 16)
)

// fileBuf is the one shared file buffer, of fileBufSize bytes: at rest
// in idle, or lent to one writer until its Recycle, while a new writer
// grows its own. The first writer makes it, and so does one after the
// holder was dropped unrecycled (its lease's finalizer ran), as that
// file may still be in use.
var fileBuf struct {
	sync.Mutex
	idle []byte
	lent bool
}

const fileBufSize = 64 << 10 // most files an insert or a compaction writes fit

// fileLease is a writer's hold on the shared file buffer.
type fileLease struct{ buf []byte }

func setFileBuf(idle []byte, lent bool) {
	fileBuf.Lock()
	fileBuf.idle, fileBuf.lent = idle, lent
	fileBuf.Unlock()
}

// NewWriter builds a writer for the schema; groupSize <= 0 selects
// DefaultRowGroupSize.
func NewWriter(schema Schema, groupSize int) *Writer {
	if groupSize <= 0 {
		groupSize = DefaultRowGroupSize
	}
	w := &Writer{schema: schema, groupSize: groupSize}
	fileBuf.Lock()
	if fileBuf.idle == nil && !fileBuf.lent {
		fileBuf.idle = make([]byte, 0, fileBufSize)
	}
	if b := fileBuf.idle; b != nil {
		fileBuf.idle, fileBuf.lent, w.lease = nil, true, &fileLease{b}
		runtime.SetFinalizer(w.lease, func(*fileLease) { setFileBuf(nil, false) })
		w.buf = *bytes.NewBuffer(b)
	}
	fileBuf.Unlock()
	w.buf.Write(magic)
	w.buf.WriteByte(version)
	return w
}

// Append validates and encodes one row, flushing a row group when full.
func (w *Writer) Append(row Row) error { return w.AppendRows([]Row{row}) }

// AppendRows validates every row, then encodes them all as Append would,
// or none if one is invalid.
func (w *Writer) AppendRows(rows []Row) error {
	for _, r := range rows {
		if err := w.schema.Validate(r); err != nil {
			return err
		}
	}
	return w.encode(len(rows), func(e *colEncoder, c, lo, hi int) {
		for _, r := range rows[lo:hi] {
			e.add(r[c])
		}
	})
}

// AppendColumns is AppendRows over typed columns, one per field and
// all of one length, as Reader.ReadColumns returns them.
func (w *Writer) AppendColumns(cols []Column) error {
	if len(cols) != len(w.schema.Fields) {
		return fmt.Errorf("colfile: %d columns, schema has %d fields", len(cols), len(w.schema.Fields))
	}
	n := 0
	for c, f := range w.schema.Fields {
		if n = cols[0].Len(); cols[c].Type != f.Type || cols[c].Len() != n {
			return fmt.Errorf("colfile: column %q is not %d %v values", f.Name, n, f.Type)
		}
	}
	return w.encode(n, func(e *colEncoder, c, lo, hi int) {
		for i := lo; i < hi; i++ {
			e.add(cols[c].Value(i))
		}
	})
}

// encode feeds n rows to the column encoders, group by group: add
// encodes rows lo to hi of column c into e.
func (w *Writer) encode(n int, add func(e *colEncoder, c, lo, hi int)) error {
	if w.finished {
		return errors.New("colfile: append after Finish")
	}
	if w.cols == nil { // idle encoders, or new ones while other writers hold them all
		select {
		case w.cols = <-idleColumns:
		default:
		}
		w.cols = slices.Grow(w.cols[:0], len(w.schema.Fields))[:len(w.schema.Fields)]
		for c, f := range w.schema.Fields {
			w.cols[c].reset(f.Type)
		}
	}
	for lo := 0; lo < n; {
		hi := lo + min(n-lo, w.groupSize-w.pending)
		for c := range w.cols {
			add(&w.cols[c], c, lo, hi)
		}
		w.pending, lo = w.pending+hi-lo, hi
		if err := w.flushGroup(w.groupSize); err != nil {
			return err
		}
	}
	return nil
}

// flushGroup compresses the open group's chunks as one row group if it
// holds any rows and at least atLeast.
func (w *Writer) flushGroup(atLeast int) error {
	if w.pending == 0 || w.pending < atLeast {
		return nil
	}
	var fw *flate.Writer
	select {
	case fw = <-idleCompressor:
	default:
		fw, _ = flate.NewWriter(io.Discard, flate.BestSpeed) // fails only on a bad level
	}
	defer func() {
		fw.Reset(io.Discard) // or the idle slot pins w through &w.buf
		select {
		case idleCompressor <- fw:
		default:
		}
	}()
	g := groupMeta{rows: w.pending, chunks: make([]chunkRef, 0, len(w.cols)), stats: make([]Stats, 0, len(w.cols))}
	for c := range w.cols {
		e := &w.cols[c]
		head, body := e.chunk()
		offset := w.buf.Len()
		fw.Reset(&w.buf)
		fw.Write(head) // into a bytes.Buffer: the errors surface at Close
		fw.Write(body)
		if err := fw.Close(); err != nil {
			return err
		}
		g.chunks = append(g.chunks, chunkRef{offset: int64(offset), length: int64(w.buf.Len() - offset)})
		st := Stats{Min: e.min, Max: e.max, Count: int64(e.n)}
		if e.t == String { // the caller's strings may share a far larger buffer
			st.Min.Str, st.Max.Str = strings.Clone(st.Min.Str), strings.Clone(st.Max.Str)
		}
		g.stats = append(g.stats, st)
		e.reset(e.t)
	}
	w.groups = append(w.groups, g)
	w.pending = 0
	return nil
}

// FileRange is column c's range over the row groups flushed so far, as
// the footer records them: on ties Min and Max keep the first-seen value.
func (w *Writer) FileRange(c int) (lo, hi Value) { return fileRange(w.groups, c) }

func fileRange(groups []groupMeta, c int) (lo, hi Value) {
	for g, m := range groups {
		if st := m.stats[c]; g == 0 || Compare(st.Min, lo) < 0 {
			lo = st.Min
		}
		if st := m.stats[c]; g == 0 || Compare(st.Max, hi) > 0 {
			hi = st.Max
		}
	}
	return lo, hi
}

// Finish flushes the last group, writes the footer, and returns the
// complete file bytes, valid until Recycle. The writer cannot be reused.
func (w *Writer) Finish() ([]byte, error) {
	if w.finished {
		return nil, errors.New("colfile: double Finish")
	}
	if err := w.flushGroup(0); err != nil {
		return nil, err
	}
	w.finished = true
	if w.cols != nil { // flushGroup reset them
		select {
		case idleColumns <- w.cols:
		default:
		}
		w.cols = nil
	}

	f := w.buf.AvailableBuffer() // the footer, encoded in place when it fits
	var tmp [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		f = append(f, tmp[:n]...)
	}
	// Schema.
	putUvarint(uint64(len(w.schema.Fields)))
	for _, fd := range w.schema.Fields {
		putUvarint(uint64(len(fd.Name)))
		f = append(f, fd.Name...)
		f = append(f, byte(fd.Type))
	}
	// Groups.
	putUvarint(uint64(len(w.groups)))
	for _, g := range w.groups {
		putUvarint(uint64(g.rows))
		for c := range w.schema.Fields {
			putUvarint(uint64(g.chunks[c].offset))
			putUvarint(uint64(g.chunks[c].length))
			st := g.stats[c]
			f = AppendValue(f, st.Min)
			f = AppendValue(f, st.Max)
			putUvarint(uint64(st.Count))
		}
	}
	w.buf.Write(f)
	var trailer [8]byte
	binary.LittleEndian.PutUint32(trailer[:4], uint32(len(f)))
	copy(trailer[4:], magic)
	w.buf.Write(trailer[:])
	return w.buf.Bytes(), nil
}

// Recycle puts the shared file buffer back at rest if w holds it. The
// bytes Finish returned may share it, so call Recycle once they are
// copied or stored; w must not be used after.
func (w *Writer) Recycle() {
	if w.lease != nil {
		runtime.SetFinalizer(w.lease, nil)
		setFileBuf(w.lease.buf[:0], false)
	}
	w.lease, w.buf = nil, bytes.Buffer{}
}

// Reader provides random and scanning access to a columnar file held in
// memory.
type Reader struct {
	data   []byte
	schema Schema
	groups []groupMeta
}

// Open parses a file produced by Writer.Finish.
func Open(data []byte) (*Reader, error) {
	r := new(Reader)
	if err := r.Reset(data); err != nil {
		return nil, err
	}
	return r, nil
}

// Reset parses another file into r, reusing the group, chunk and stats
// storage of the file r held, so a scan opens file after file into one
// reader. The previous schema's Fields are kept only when every name
// and type match, and never written: Schema hands them to callers. A
// failed Reset leaves r empty.
func (r *Reader) Reset(data []byte) (err error) {
	defer func() {
		if err != nil {
			r.data, r.schema, r.groups = nil, Schema{}, r.groups[:0]
		}
	}()
	if len(data) < len(magic)+1+8 || !bytes.Equal(data[:4], magic) || !bytes.Equal(data[len(data)-4:], magic) {
		return errors.New("colfile: bad magic")
	}
	if data[4] != version {
		return fmt.Errorf("colfile: unsupported version %d", data[4])
	}
	footerLen := binary.LittleEndian.Uint32(data[len(data)-8 : len(data)-4])
	if int(footerLen) > len(data)-8 {
		return errors.New("colfile: footer length out of range")
	}
	f := data[len(data)-8-int(footerLen) : len(data)-8]

	readUvarint := func() (uint64, error) {
		v, sz := binary.Uvarint(f)
		if sz <= 0 {
			return 0, errors.New("colfile: truncated footer")
		}
		f = f[sz:]
		return v, nil
	}
	// presize clamps an untrusted count to the items the rest of the
	// footer holds at each bytes apiece: a field ≥ 2, a group's column ≥ 7.
	presize := func(n uint64, each int) int { return int(min(n, uint64(len(f)/each))) }
	const colBytes = 7
	nf, err := readUvarint()
	if err != nil {
		return err
	}
	// fields stays the previous schema's while every field matches it.
	prev := r.schema.Fields
	fields, same := prev, uint64(len(prev)) == nf
	if !same {
		fields = make([]Field, 0, presize(nf, 2))
	}
	for i := 0; uint64(i) < nf; i++ {
		nl, err := readUvarint()
		if err != nil {
			return err
		}
		if nl >= uint64(len(f)) { // the name and its type byte; nl+1 would wrap
			return errors.New("colfile: truncated footer schema")
		}
		name, t := f[:nl], Type(f[nl])
		if same && (prev[i].Name != string(name) || prev[i].Type != t) {
			same, fields = false, append(make([]Field, 0, i+presize(nf-uint64(i), 2)), prev[:i]...)
		}
		if !same {
			fields = append(fields, Field{Name: string(name), Type: t})
		}
		f = f[nl+1:]
	}
	ng, err := readUvarint()
	if err != nil {
		return err
	}
	nc := len(fields)
	r.data, r.schema = data, Schema{Fields: fields}
	r.groups = slices.Grow(r.groups[:0], presize(ng, 1+colBytes*nc))
	for i := uint64(0); i < ng; i++ {
		rows, err := readUvarint()
		if err != nil {
			return err
		}
		// Untrusted row count: guard the int conversion. Per-chunk
		// decoders validate the count against the decompressed data
		// (compression makes tighter file-size bounds unsound).
		if rows > 1<<31 {
			return errors.New("colfile: group row count out of range")
		}
		r.groups = slices.Grow(r.groups, 1)[:len(r.groups)+1]
		g := &r.groups[len(r.groups)-1] // with the storage of the group that held this slot, if any
		cols := presize(uint64(nc), colBytes)
		g.rows, g.chunks, g.stats = int(rows), slices.Grow(g.chunks[:0], cols), slices.Grow(g.stats[:0], cols)
		for c := 0; c < nc; c++ {
			off, err := readUvarint()
			if err != nil {
				return err
			}
			length, err := readUvarint()
			if err != nil {
				return err
			}
			var st Stats
			st.Min, f, err = ReadValue(f)
			if err != nil {
				return err
			}
			st.Max, f, err = ReadValue(f)
			if err != nil {
				return err
			}
			cnt, err := readUvarint()
			if err != nil {
				return err
			}
			st.Count = int64(cnt)
			g.chunks = append(g.chunks, chunkRef{offset: int64(off), length: int64(length)})
			g.stats = append(g.stats, st)
		}
	}
	return nil
}

// Schema returns the file's schema.
func (r *Reader) Schema() Schema { return r.schema }

// NumRowGroups returns the row-group count.
func (r *Reader) NumRowGroups() int { return len(r.groups) }

// NumRows returns the total row count from the footer (no data read).
func (r *Reader) NumRows() int64 {
	var n int64
	for _, g := range r.groups {
		n += int64(g.rows)
	}
	return n
}

// GroupRows returns the row count of group g.
func (r *Reader) GroupRows(g int) int { return r.groups[g].rows }

// GroupStats returns the statistics of column c in group g.
func (r *Reader) GroupStats(g, c int) Stats { return r.groups[g].stats[c] }

// FileRange is Writer.FileRange over the file's footer.
func (r *Reader) FileRange(c int) (lo, hi Value) { return fileRange(r.groups, c) }

// GroupBytes returns the encoded size of group g across all columns,
// used for byte-level skipping accounting (Figure 16-b).
func (r *Reader) GroupBytes(g int) int64 {
	var n int64
	for _, ch := range r.groups[g].chunks {
		n += ch.length
	}
	return n
}

// Column is one column of a row group, its values in the slice of its
// Type: Ints, Floats, Strs or Bools. A Column read into again keeps the
// other slices' storage.
type Column struct {
	Type   Type
	Ints   []int64
	Floats []float64
	Strs   []string
	Bools  []bool
}

// MakeColumn returns an empty column of type t with room for n values.
func MakeColumn(t Type, n int) Column {
	c := Column{Type: t}
	switch t {
	case Int64:
		c.Ints = make([]int64, 0, n)
	case Float64:
		c.Floats = make([]float64, 0, n)
	case String:
		c.Strs = make([]string, 0, n)
	case Bool:
		c.Bools = make([]bool, 0, n)
	}
	return c
}

// Len returns the number of values.
func (c *Column) Len() int {
	switch c.Type {
	case Int64:
		return len(c.Ints)
	case Float64:
		return len(c.Floats)
	case String:
		return len(c.Strs)
	case Bool:
		return len(c.Bools)
	}
	return 0
}

// Value returns value i as a Value.
func (c *Column) Value(i int) Value {
	switch c.Type {
	case Int64:
		return IntValue(c.Ints[i])
	case Float64:
		return FloatValue(c.Floats[i])
	case String:
		return StringValue(c.Strs[i])
	case Bool:
		return BoolValue(c.Bools[i])
	}
	return Value{}
}

// ReadColumns decodes the named columns (nil means all) of group g into
// dst's columns, whatever they hold, and returns them aligned with cols.
// The result reuses dst's backing array and each column's storage, so a
// caller that passes back what the last call returned decodes group
// after group without allocating. The values are valid until dst is
// passed again. On an error it returns no column.
func (r *Reader) ReadColumns(g int, cols []int, dst []Column) ([]Column, error) {
	n := len(cols)
	if cols == nil {
		n = len(r.schema.Fields)
	}
	dst = slices.Grow(dst[:0], n)[:n]
	gm := r.groups[g]
	for i := range dst {
		c := i
		if cols != nil {
			c = cols[i]
		}
		ch := gm.chunks[c]
		if ch.offset+ch.length > int64(len(r.data)) {
			return dst[:0], errors.New("colfile: chunk out of range")
		}
		if err := decodeChunk(&dst[i], r.schema.Fields[c].Type, r.data[ch.offset:ch.offset+ch.length], gm.rows); err != nil {
			return dst[:0], err
		}
	}
	return dst, nil
}

// ReadGroup is ReadColumns into new Values: the named columns (nil means
// all) of group g, column-major, aligned with cols.
func (r *Reader) ReadGroup(g int, cols []int) ([][]Value, error) {
	typed, err := r.ReadColumns(g, cols, nil)
	if err != nil {
		return nil, err
	}
	out := make([][]Value, len(typed))
	for k := range typed {
		out[k] = make([]Value, typed[k].Len())
		for i := range out[k] {
			out[k][i] = typed[k].Value(i)
		}
	}
	return out, nil
}

// RowDecoder reads whole files as rows, for callers that rewrite what
// they read. It decodes each row group into typed columns it keeps from
// group to group and file to file, and carves the rows from value
// storage it keeps until Recycle. The zero value is ready; it is not
// safe for concurrent use.
type RowDecoder struct {
	cols []Column
	vals []Value // row storage; rows are carved from vals[used:]
	used int
}

// AppendRows decodes every row of r and appends them to dst, or appends
// nothing if any chunk fails. The rows, and those of earlier calls, stay
// valid, and the caller may modify them, until the next Recycle.
func (d *RowDecoder) AppendRows(dst []Row, r *Reader) ([]Row, error) {
	n, nc := len(dst), len(r.schema.Fields)
	for g, gm := range r.groups {
		var err error
		if d.cols, err = r.ReadColumns(g, nil, d.cols); err != nil {
			return dst[:n], err
		}
		need := gm.rows * nc           // gm.rows: each column's chunk held that many
		if len(d.vals)-d.used < need { // earlier rows keep the old storage
			d.vals, d.used = make([]Value, max(need, 2*len(d.vals))), 0
		}
		vals := d.vals[d.used : d.used+need]
		d.used += need
		dst = slices.Grow(dst, gm.rows)
		for i := 0; i < gm.rows; i++ {
			row := vals[i*nc : (i+1)*nc : (i+1)*nc]
			for c := range row {
				row[c] = d.cols[c].Value(i)
			}
			dst = append(dst, row)
		}
	}
	return dst, nil
}

// Recycle releases the storage of every row AppendRows has returned: the
// next call overwrites it. Call it once nothing reads those rows any
// more — after the file they were rewritten into is written — so one
// rewrite reuses one buffer, file after file.
func (d *RowDecoder) Recycle() { d.used = 0 }
