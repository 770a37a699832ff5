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
// self-describing batch.
func Encode(schema colfile.Schema, rows []colfile.Row) ([]byte, error) {
	var out []byte
	out = append(out, magic...)
	var tmp [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		out = append(out, tmp[:n]...)
	}
	// Schema block.
	putUvarint(uint64(len(schema.Fields)))
	for _, f := range schema.Fields {
		putUvarint(uint64(len(f.Name)))
		out = append(out, f.Name...)
		out = append(out, byte(f.Type))
	}
	// Rows.
	putUvarint(uint64(len(rows)))
	for i, r := range rows {
		if err := schema.Validate(r); err != nil {
			return nil, fmt.Errorf("rowcodec: row %d: %w", i, err)
		}
		for c, v := range r {
			switch schema.Fields[c].Type {
			case colfile.Int64:
				n := binary.PutVarint(tmp[:], v.Int)
				out = append(out, tmp[:n]...)
			case colfile.Float64:
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.Float))
				out = append(out, b[:]...)
			case colfile.String:
				putUvarint(uint64(len(v.Str)))
				out = append(out, v.Str...)
			case colfile.Bool:
				if v.Bool {
					out = append(out, 1)
				} else {
					out = append(out, 0)
				}
			}
		}
	}
	return out, nil
}

// Decode parses a batch produced by Encode, returning the embedded schema
// and rows. The batch must end data: trailing bytes are an error.
//
// String values are not copied: they share data's bytes, so leave data
// unchanged while they are in use. Every caller decodes stored bytes,
// which the lake never rewrites. A kept string keeps all of data alive,
// so what outlives data copies what it keeps. The schema is the shape
// table's, or borrows its names from data: never modify its Fields.
func Decode(data []byte) (colfile.Schema, []colfile.Row, error) {
	if len(data) < 4 || string(data[:4]) != string(magic) {
		return colfile.Schema{}, nil, errors.New("rowcodec: bad magic")
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
		schema, data = known.schema, data[len(known.block):]
	} else {
		nf, err := readUvarint()
		if err != nil {
			return colfile.Schema{}, nil, err
		}
		// The untrusted count sizes Fields once, clamped: a field costs at
		// least two bytes, a name length and a type.
		schema.Fields = make([]colfile.Field, 0, min(nf, uint64(len(data))/2))
		for i := uint64(0); i < nf; i++ {
			nl, err := readUvarint()
			if err != nil {
				return colfile.Schema{}, nil, err
			}
			if nl >= uint64(len(data)) { // not nl+1 > len: nl is untrusted and may be 2^64-1
				return colfile.Schema{}, nil, errors.New("rowcodec: truncated schema")
			}
			typ := colfile.Type(data[nl])
			if typ > colfile.Bool {
				return colfile.Schema{}, nil, fmt.Errorf("rowcodec: unknown type %d", typ)
			}
			schema.Fields = append(schema.Fields, colfile.Field{Name: borrow(data[:nl]), Type: typ})
			data = data[nl+1:]
		}
		block = block[:len(block)-len(data)]
	}
	nr, err := readUvarint()
	if err != nil {
		return colfile.Schema{}, nil, err
	}
	// The count is untrusted input: rows cost at least one byte each, so
	// a count beyond the remaining bytes is corrupt, and preallocation
	// is clamped regardless.
	if nr > uint64(len(data))+1 {
		return colfile.Schema{}, nil, errors.New("rowcodec: row count exceeds input")
	}
	cap := nr
	if cap > 1024 {
		cap = 1024
	}
	rows := make([]colfile.Row, 0, cap)
	for i := uint64(0); i < nr; i++ {
		row := make(colfile.Row, len(schema.Fields))
		for c, f := range schema.Fields {
			switch f.Type {
			case colfile.Int64:
				v, sz := binary.Varint(data)
				if sz <= 0 {
					return colfile.Schema{}, nil, errors.New("rowcodec: truncated int")
				}
				data = data[sz:]
				row[c] = colfile.IntValue(v)
			case colfile.Float64:
				if len(data) < 8 {
					return colfile.Schema{}, nil, errors.New("rowcodec: truncated float")
				}
				row[c] = colfile.FloatValue(math.Float64frombits(binary.LittleEndian.Uint64(data)))
				data = data[8:]
			case colfile.String:
				l, err := readUvarint()
				if err != nil || uint64(len(data)) < l {
					return colfile.Schema{}, nil, errors.New("rowcodec: truncated string")
				}
				row[c] = colfile.StringValue(borrow(data[:l]))
				data = data[l:]
			case colfile.Bool:
				if len(data) < 1 {
					return colfile.Schema{}, nil, errors.New("rowcodec: truncated bool")
				}
				row[c] = colfile.BoolValue(data[0] != 0)
				data = data[1:]
			}
		}
		rows = append(rows, row)
	}
	if len(data) > 0 {
		return colfile.Schema{}, nil, fmt.Errorf("rowcodec: %d bytes after the last row", len(data))
	}
	if known == nil { // admit a copy whose names it owns
		s := &shape{block: string(block), schema: colfile.Schema{Fields: slices.Clone(schema.Fields)}}
		for i, f := range s.schema.Fields {
			s.schema.Fields[i].Name = strings.Clone(f.Name)
		}
		shapes[nextShape.Add(1)%uint32(len(shapes))].Store(s)
	}
	return schema, rows, nil
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

// borrow returns b as a string that shares b's bytes. An empty b gives
// "", which points at nothing and so keeps nothing alive.
func borrow(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}
