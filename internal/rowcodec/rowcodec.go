// Package rowcodec is a compact schema'd binary record codec — the
// reproduction's stand-in for the Avro files the paper uses for commit
// metadata (Section IV-B) — and the message-payload codec used when
// stream records carry structured fields for stream-to-table conversion.
// A record batch carries its schema inline, so files are self-describing
// the way Avro object container files are.
package rowcodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"unsafe"

	"streamlake/internal/colfile"
)

var magic = []byte("SLRC")

// Encode serializes rows (validated against schema) into a
// self-describing batch: AppendHeader, then each row's values in field
// order through AppendField.
func Encode(schema colfile.Schema, rows []colfile.Row) ([]byte, error) {
	out := AppendHeader(nil, schema, len(rows))
	for i, r := range rows {
		if err := schema.Validate(r); err != nil {
			return nil, fmt.Errorf("rowcodec: row %d: %w", i, err)
		}
		for _, v := range r {
			out = AppendField(out, v)
		}
	}
	return out, nil
}

// AppendHeader appends a batch's magic, schema block and row count to
// buf. The rows follow, each field's value in schema order through
// AppendField; the caller keeps to schema and count.
func AppendHeader(buf []byte, schema colfile.Schema, rows int) []byte {
	buf = binary.AppendUvarint(append(buf, magic...), uint64(len(schema.Fields)))
	for _, f := range schema.Fields {
		buf = append(AppendField(buf, colfile.StringValue(f.Name)), byte(f.Type))
	}
	return binary.AppendUvarint(buf, uint64(rows))
}

// AppendField appends v as a field of its type: a varint, eight bytes
// little-endian, a uvarint length and the bytes, or one byte.
func AppendField(buf []byte, v colfile.Value) []byte {
	switch v.Type {
	case colfile.Int64:
		return binary.AppendVarint(buf, v.Int)
	case colfile.Float64:
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Float))
	case colfile.String:
		return AppendString(buf, v.Str)
	case colfile.Bool:
		if v.Bool {
			return append(buf, 1)
		}
		return append(buf, 0)
	}
	return buf
}

// AppendString appends a String field's value, given as a string or as
// its bytes.
func AppendString[S string | []byte](buf []byte, s S) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// Decode parses a batch produced by Encode, returning the embedded schema
// and rows: a Decoder's rows, each in a Row of its own.
//
// String values are not copied: they share data's bytes, so leave data
// unchanged while they are in use. Every caller decodes stored bytes,
// which the lake never rewrites. A kept string keeps all of data alive,
// so what outlives data copies what it keeps. The schema is the shape
// table's, or borrows its names from data: never modify its Fields.
func Decode(data []byte) (colfile.Schema, []colfile.Row, error) {
	var d Decoder
	err := d.Reset(data)
	rows := make([]colfile.Row, 0, min(d.Len(), 1024))
	for err == nil && d.Len() > 0 {
		row := make(colfile.Row, len(d.Schema.Fields))
		err = d.Next(row)
		rows = append(rows, row)
	}
	if err != nil {
		return colfile.Schema{}, nil, err
	}
	return d.Schema, rows, nil
}

// A Decoder reads a batch a row at a time into the caller's row: Reset
// parses the header and Next decodes a row while Len is not 0, and both
// check, once no row is left, that the batch ends there. It borrows what
// Decode borrows, and fails on exactly the bytes Decode fails on.
type Decoder struct {
	Schema colfile.Schema // the batch's, as Decode returns it
	block  []byte         // the schema block, unless the shape table has it
	data   []byte         // the rows not yet decoded
	left   uint64         // how many
}

// Reset starts decoding data, parsing its magic, schema and row count.
func (d *Decoder) Reset(data []byte) error {
	*d = Decoder{}
	if len(data) < 4 || string(data[:4]) != string(magic) {
		return errors.New("rowcodec: bad magic")
	}
	data = data[4:]
	readUvarint := func() (uint64, error) {
		v, sz := binary.Uvarint(data)
		if sz <= 0 {
			return 0, errors.New("rowcodec: truncated")
		}
		data = data[sz:]
		return v, nil
	}
	schema, known, block := colfile.Schema{}, lookupShape(data), data
	if known != nil {
		schema, data, block = known.schema, data[len(known.block):], nil
	} else {
		nf, err := readUvarint()
		if err != nil {
			return err
		}
		// The untrusted count sizes Fields once, clamped: a field costs at
		// least two bytes, a name length and a type.
		schema.Fields = make([]colfile.Field, 0, min(nf, uint64(len(data))/2))
		for i := uint64(0); i < nf; i++ {
			nl, err := readUvarint()
			if err != nil {
				return err
			}
			if nl >= uint64(len(data)) { // not nl+1 > len: nl is untrusted and may be 2^64-1
				return errors.New("rowcodec: truncated schema")
			}
			typ := colfile.Type(data[nl])
			if typ > colfile.Bool {
				return fmt.Errorf("rowcodec: unknown type %d", typ)
			}
			schema.Fields = append(schema.Fields, colfile.Field{Name: borrow(data[:nl]), Type: typ})
			data = data[nl+1:]
		}
		block = block[:len(block)-len(data)]
	}
	nr, err := readUvarint()
	if err != nil {
		return err
	}
	// The count is untrusted input: rows cost at least one byte each, so
	// a count beyond the remaining bytes is corrupt.
	if nr > uint64(len(data))+1 {
		return errors.New("rowcodec: row count exceeds input")
	}
	*d = Decoder{Schema: schema, block: block, data: data, left: nr}
	return d.end()
}

// Len is how many rows are left to decode: at most one more than the
// bytes left, as a corrupt count is refused beyond that.
func (d *Decoder) Len() int { return int(d.left) }

// Next decodes the next row into row, one value per field.
func (d *Decoder) Next(row colfile.Row) error {
	data := d.data
	for c, f := range d.Schema.Fields {
		switch f.Type {
		case colfile.Int64:
			v, sz := binary.Varint(data)
			if sz <= 0 {
				return errors.New("rowcodec: truncated int")
			}
			data = data[sz:]
			row[c] = colfile.IntValue(v)
		case colfile.Float64:
			if len(data) < 8 {
				return errors.New("rowcodec: truncated float")
			}
			row[c] = colfile.FloatValue(math.Float64frombits(binary.LittleEndian.Uint64(data)))
			data = data[8:]
		case colfile.String:
			l, sz := binary.Uvarint(data)
			if sz <= 0 || uint64(len(data)-sz) < l {
				return errors.New("rowcodec: truncated string")
			}
			row[c] = colfile.StringValue(borrow(data[sz : sz+int(l)]))
			data = data[sz+int(l):]
		case colfile.Bool:
			if len(data) < 1 {
				return errors.New("rowcodec: truncated bool")
			}
			row[c] = colfile.BoolValue(data[0] != 0)
			data = data[1:]
		}
	}
	d.data, d.left = data, d.left-1
	return d.end()
}

// end checks, once no row is left, that the batch ends there, and then
// admits its schema to the shape table.
func (d *Decoder) end() error {
	if d.left > 0 {
		return nil
	}
	if len(d.data) > 0 {
		return fmt.Errorf("rowcodec: %d bytes after the last row", len(d.data))
	}
	if d.block != nil { // admit a copy whose names it owns
		s := &shape{block: string(d.block), schema: colfile.Schema{Fields: slices.Clone(d.Schema.Fields)}}
		for i, f := range s.schema.Fields {
			s.schema.Fields[i].Name = strings.Clone(f.Name)
		}
		shapes[nextShape.Add(1)%uint32(len(shapes))].Store(s)
	}
	return nil
}

// The shape table holds the schemas of the last 16 batches that decoded
// whole with a schema block it lacked, beside a copy of the block, so a
// stream of one message shape builds its schema once. A lake decodes a
// few shapes: each converted topic's, and its commit and snapshot
// batches'. Entries are never modified once published, and a new shape
// replaces the oldest: shapes seen first cannot keep later ones out.
type shape struct {
	block  string // the field count, then each name and type
	schema colfile.Schema
}

var (
	shapes    [16]atomic.Pointer[shape]
	nextShape atomic.Uint32
)

// lookupShape returns the entry whose block data begins with, or nil. A
// block delimits itself, so a prefix equal to one is one.
func lookupShape(data []byte) *shape {
	for i := range shapes {
		if s := shapes[i].Load(); s != nil && len(s.block) <= len(data) && s.block == string(data[:len(s.block)]) {
			return s
		}
	}
	return nil
}

// Bytes returns s, a string a Decoder borrowed from a batch, as the
// batch's bytes it shares, without a copy: read them only.
func Bytes(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

// borrow returns b as a string that shares b's bytes. An empty b gives
// "", which points at nothing and so keeps nothing alive.
func borrow(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}
