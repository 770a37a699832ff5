package colfile

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The row-major chunk encoders the writer used before it encoded values
// as they arrived: each encodes column c of a whole group of rows. They
// are the reference the incremental encoders are checked against.

func appendInt64Chunk(buf []byte, rows []Row, c int) []byte {
	prev := int64(0)
	for _, r := range rows {
		buf = binary.AppendVarint(buf, r[c].Int-prev)
		prev = r[c].Int
	}
	return buf
}

func appendFloat64Chunk(buf []byte, rows []Row, c int) []byte {
	for _, r := range rows {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r[c].Float))
	}
	return buf
}

func appendStringChunk(buf []byte, rows []Row, c int) []byte {
	// Try dictionary encoding: worthwhile when distinct values fit a
	// byte and repeat. One pass builds the dictionary in first-seen order
	// and appends each row's code after buf's end; a value equal to the
	// previous row's repeats its code without a lookup.
	start := len(buf)
	dict := make(map[string]byte)
	for i, r := range rows {
		s := r[c].Str
		if i > 0 && s == rows[i-1][c].Str {
			buf = append(buf, buf[len(buf)-1])
			continue
		}
		code, ok := dict[s]
		if !ok {
			if len(dict) == 256 {
				dict = nil
				break
			}
			code = byte(len(dict))
			dict[s] = code
		}
		buf = append(buf, code)
	}
	if dict != nil && len(dict)*2 < len(rows) {
		// Dictionary block: count, then each entry. It goes ahead of the
		// codes: append it and a second copy of the codes, then slide
		// both down over the first copy.
		words := make([]string, len(dict))
		for w, i := range dict {
			words[i] = w
		}
		n := len(buf) - start
		buf = append(buf, encDict)
		buf = binary.AppendUvarint(buf, uint64(len(words)))
		for _, w := range words {
			buf = binary.AppendUvarint(buf, uint64(len(w)))
			buf = append(buf, w...)
		}
		buf = append(buf, buf[start:start+n]...)
		return buf[:start+copy(buf[start:], buf[start+n:])]
	}
	buf = append(buf[:start], encPlain)
	for _, r := range rows {
		buf = binary.AppendUvarint(buf, uint64(len(r[c].Str)))
		buf = append(buf, r[c].Str...)
	}
	return buf
}

func appendBoolChunk(buf []byte, rows []Row, c int) []byte {
	base := len(buf)
	buf = append(buf, make([]byte, (len(rows)+7)/8)...)
	for i, r := range rows {
		if r[c].Bool {
			buf[base+i/8] |= 1 << (i % 8)
		}
	}
	return buf
}

// appendChunk appends the uncompressed encoding of column c of rows.
func appendChunk(buf []byte, t Type, rows []Row, c int) ([]byte, error) {
	switch t {
	case Int64:
		return appendInt64Chunk(buf, rows, c), nil
	case Float64:
		return appendFloat64Chunk(buf, rows, c), nil
	case String:
		return appendStringChunk(buf, rows, c), nil
	case Bool:
		return appendBoolChunk(buf, rows, c), nil
	default:
		return nil, fmt.Errorf("colfile: unknown type %v", t)
	}
}

// referenceFile writes rows as the row-major writer did: per group, the
// range of each column from its first row on, each chunk encoded whole
// and compressed by a fresh compressor. The footer is Finish's.
func referenceFile(t testing.TB, schema Schema, groupSize int, rows []Row) ([]byte, *Writer) {
	t.Helper()
	w := NewWriter(schema, groupSize)
	for start := 0; start < len(rows); start += groupSize {
		group := rows[start:min(start+groupSize, len(rows))]
		g := groupMeta{rows: len(group)}
		for c, f := range schema.Fields {
			st := Stats{Min: group[0][c], Max: group[0][c], Count: int64(len(group))}
			for _, r := range group[1:] {
				if Compare(r[c], st.Min) < 0 {
					st.Min = r[c]
				}
				if Compare(r[c], st.Max) > 0 {
					st.Max = r[c]
				}
			}
			raw, err := appendChunk(nil, f.Type, group, c)
			if err != nil {
				t.Fatal(err)
			}
			offset := w.buf.Len()
			fw, _ := flate.NewWriter(&w.buf, flate.BestSpeed)
			fw.Write(raw)
			if err := fw.Close(); err != nil {
				t.Fatal(err)
			}
			g.chunks = append(g.chunks, chunkRef{offset: int64(offset), length: int64(w.buf.Len() - offset)})
			g.stats = append(g.stats, st)
		}
		w.groups = append(w.groups, g)
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return data, w
}

// encodeColumn runs vals through one incremental encoder and returns the
// uncompressed chunk.
func encodeColumn(t Type, vals []Value) []byte {
	var e colEncoder
	e.reset(t)
	for _, v := range vals {
		e.add(v)
	}
	head, body := e.chunk()
	return append(append([]byte(nil), head...), body...)
}

// randomTable draws a schema of one to six fields and n rows for it.
// Strings come from a pool of 1 to 300 values, the empty string among
// them, a third repeating the previous row's; floats include NaN, -0
// and +0.
func randomTable(rng *rand.Rand, n int) (Schema, []Row) {
	var schema Schema
	for c := 0; c < 1+rng.Intn(6); c++ {
		schema.Fields = append(schema.Fields, Field{Name: fmt.Sprintf("f%d", c), Type: Type(rng.Intn(4))})
	}
	distinct, floats := 1+rng.Intn(300), []float64{math.NaN(), math.Copysign(0, -1), 0, 1.5, -2}
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = make(Row, len(schema.Fields))
		for c, f := range schema.Fields {
			var v Value
			switch f.Type {
			case Int64:
				v = IntValue(rng.Int63n(1000) - 500)
				if rng.Intn(4) == 0 {
					v = IntValue(int64(rng.Uint64()))
				}
			case Float64:
				v = FloatValue(floats[rng.Intn(len(floats))])
				if rng.Intn(2) == 0 {
					v = FloatValue(rng.NormFloat64())
				}
			case String:
				v = StringValue("")
				if k := rng.Intn(distinct); k > 0 {
					v = StringValue(fmt.Sprintf("w%d", k))
				}
				if i > 0 && rng.Intn(3) == 0 {
					v = rows[i-1][c]
				}
			case Bool:
				v = BoolValue(rng.Intn(2) == 0)
			}
			rows[i][c] = v
		}
	}
	return schema, rows
}

// columns returns rows as typed columns.
func columns(schema Schema, rows []Row) []Column {
	cols := make([]Column, len(schema.Fields))
	for c, f := range schema.Fields {
		cols[c] = MakeColumn(f.Type, len(rows))
		for _, r := range rows {
			cols[c].Ints = append(cols[c].Ints, r[c].Int)
			cols[c].Floats = append(cols[c].Floats, r[c].Float)
			cols[c].Strs = append(cols[c].Strs, r[c].Str)
			cols[c].Bools = append(cols[c].Bools, r[c].Bool)
		}
	}
	return cols
}

// writeMixed writes rows in random runs, each through Append, AppendRows
// or AppendColumns (mode -1), or all through one of them (mode 0-2).
// The caller's rows are overwritten after every call: the writer must
// have encoded them by then.
func writeMixed(t testing.TB, rng *rand.Rand, schema Schema, groupSize int, rows []Row, mode int) ([]byte, *Writer) {
	t.Helper()
	w := NewWriter(schema, groupSize)
	for len(rows) > 0 {
		k, m := len(rows), mode
		if mode < 0 {
			k, m = 1+rng.Intn(len(rows)), rng.Intn(3)
		}
		run := make([]Row, k)
		for i := range run {
			run[i] = append(Row(nil), rows[i]...)
		}
		var err error
		switch m {
		case 0:
			for _, r := range run {
				if err = w.Append(r); err != nil {
					break
				}
			}
		case 1:
			err = w.AppendRows(run)
		case 2:
			err = w.AppendColumns(columns(schema, run))
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range run {
			for c := range r {
				r[c] = Value{Type: r[c].Type, Str: "overwritten", Int: -1}
			}
		}
		rows = rows[k:]
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return data, w
}

// sameFile fails t unless got and its writer match the reference file
// and writer byte for byte and group statistic for statistic.
func sameFile(t *testing.T, what string, got, want []byte, gw, ww *Writer) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: %d bytes, the row-major reference %d", what, len(got), len(want))
	}
	if len(gw.groups) != len(ww.groups) {
		t.Fatalf("%s: %d groups, the reference %d", what, len(gw.groups), len(ww.groups))
	}
	for g := range ww.groups {
		for c := range ww.schema.Fields {
			if a, b := gw.groups[g].stats[c], ww.groups[g].stats[c]; !sameValue(a.Min, b.Min) || !sameValue(a.Max, b.Max) || a.Count != b.Count {
				t.Fatalf("%s: group %d column %d stats %+v, the reference %+v", what, g, c, a, b)
			}
		}
	}
}

// Append, AppendRows, AppendColumns and random mixes of them write the
// file and the group statistics the row-major reference writes, over
// random schemas, sizes and group sizes, runs that split groups, and
// the string chunks at the dictionary's edges: exactly 256 and 257
// distinct values, and n distinct values in 2n rows (plain) and 2n+1
// (dictionary). Group sizes not a multiple of 8 leave bitmaps ragged.
func TestWriterMatchesRowMajorReference(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	type tc struct {
		schema    Schema
		groupSize int
		rows      []Row
	}
	var cases []tc
	for i := 0; i < 60; i++ {
		schema, rows := randomTable(rng, rng.Intn(1500))
		cases = append(cases, tc{schema, 1 + rng.Intn(300), rows})
	}
	edge := MustSchema("s:string", "b:bool")
	strs := func(n, distinct int) []Row {
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{StringValue(fmt.Sprintf("v%d", i%distinct)), BoolValue(i%3 == 0)}
		}
		return rows
	}
	for _, distinct := range []int{256, 257} {
		cases = append(cases, tc{edge, 2*distinct + 1, strs(2*distinct+1, distinct)}, tc{edge, 600, strs(1200, distinct)})
	}
	for _, n := range []int{1, 2, 13, 64, 128} {
		cases = append(cases, tc{edge, 2 * n, strs(4*n, n)}, tc{edge, 2*n + 1, strs(4*n+2, n)})
	}
	for i, c := range cases {
		want, ww := referenceFile(t, c.schema, c.groupSize, c.rows)
		for mode := -1; mode < 3; mode++ {
			got, gw := writeMixed(t, rng, c.schema, c.groupSize, c.rows, mode)
			sameFile(t, fmt.Sprintf("case %d (%d rows, group %d) mode %d", i, len(c.rows), c.groupSize, mode), got, want, gw, ww)
		}
	}
}

// AppendColumns rejects columns that do not fit the schema and encodes
// none of them.
func TestAppendColumnsRejectsMisfits(t *testing.T) {
	s := MustSchema("i:int64", "s:string")
	w := NewWriter(s, 4)
	for _, cols := range [][]Column{
		{{Type: Int64, Ints: []int64{1}}},
		{{Type: Int64, Ints: []int64{1}}, {Type: String, Strs: []string{"a", "b"}}},
		{{Type: Int64, Ints: []int64{1}}, {Type: Int64, Ints: []int64{2}}},
		{{Type: Int64, Ints: []int64{1}}, {Type: String, Ints: []int64{2}, Strs: []string{}}},
	} {
		if err := w.AppendColumns(cols); err == nil {
			t.Fatalf("AppendColumns(%v) succeeded", cols)
		}
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if r, err := Open(data); err != nil || r.NumRows() != 0 {
		t.Fatalf("the file after rejected columns: err %v", err)
	}
}

// The Value decoders the reader used before it decoded into typed
// columns: each appends n Values to out. They are the reference the
// typed decoders are checked against.

func refDecodeInt64Chunk(out []Value, data []byte, n int) ([]Value, error) {
	// Each varint costs at least one byte.
	if n < 0 || n > len(data) {
		return nil, errors.New("colfile: int64 count exceeds chunk")
	}
	out = slices.Grow(out, n)
	prev := int64(0)
	for i := 0; i < n; i++ {
		d, sz := binary.Varint(data)
		if sz <= 0 {
			return nil, errors.New("colfile: truncated int64 chunk")
		}
		data = data[sz:]
		prev += d
		out = append(out, IntValue(prev))
	}
	return out, nil
}

func refDecodeFloat64Chunk(out []Value, data []byte, n int) ([]Value, error) {
	if len(data) < 8*n {
		return nil, errors.New("colfile: truncated float64 chunk")
	}
	out = slices.Grow(out, n)
	for i := 0; i < n; i++ {
		out = append(out, FloatValue(math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))))
	}
	return out, nil
}

func refDecodeStringChunk(out []Value, data []byte, n int) ([]Value, error) {
	if len(data) < 1 {
		return nil, errors.New("colfile: empty string chunk")
	}
	enc := data[0]
	data = data[1:]
	// Both encodings spend at least one byte per value: a length or a code.
	if n < 0 || n > len(data) {
		return nil, errors.New("colfile: string count exceeds chunk")
	}
	out = slices.Grow(out, n)
	switch enc {
	case encDict:
		count, sz := binary.Uvarint(data)
		if sz <= 0 {
			return nil, errors.New("colfile: truncated dictionary")
		}
		data = data[sz:]
		// Untrusted dictionary size: entries cost at least one byte.
		if count > uint64(len(data)) {
			return nil, errors.New("colfile: dictionary size exceeds chunk")
		}
		words := make([]string, count)
		for i := range words {
			l, sz := binary.Uvarint(data)
			if sz <= 0 || uint64(len(data)-sz) < l {
				return nil, errors.New("colfile: truncated dictionary entry")
			}
			data = data[sz:]
			words[i] = string(data[:l])
			data = data[l:]
		}
		if len(data) < n {
			return nil, errors.New("colfile: truncated dictionary codes")
		}
		for i := 0; i < n; i++ {
			code := int(data[i])
			if code >= len(words) {
				return nil, errors.New("colfile: dictionary code out of range")
			}
			out = append(out, StringValue(words[code]))
		}
	case encPlain:
		for i := 0; i < n; i++ {
			l, sz := binary.Uvarint(data)
			if sz <= 0 || uint64(len(data)-sz) < l {
				return nil, errors.New("colfile: truncated string")
			}
			data = data[sz:]
			out = append(out, StringValue(string(data[:l])))
			data = data[l:]
		}
	default:
		return nil, fmt.Errorf("colfile: unknown string encoding %d", enc)
	}
	return out, nil
}

func refDecodeBoolChunk(out []Value, data []byte, n int) ([]Value, error) {
	if len(data) < (n+7)/8 {
		return nil, errors.New("colfile: truncated bool chunk")
	}
	out = slices.Grow(out, n)
	for i := 0; i < n; i++ {
		out = append(out, BoolValue(data[i/8]&(1<<(i%8)) != 0))
	}
	return out, nil
}

// refReadGroup decodes every column of group g through the reference
// decoders, as ReadGroup(g, nil) did.
func refReadGroup(r *Reader, g int) ([][]Value, error) {
	gm := r.groups[g]
	out := make([][]Value, len(r.schema.Fields))
	for c, f := range r.schema.Fields {
		ch := gm.chunks[c]
		if ch.offset+ch.length > int64(len(r.data)) {
			return nil, errors.New("colfile: chunk out of range")
		}
		raw, err := new(inflater).inflate(r.data[ch.offset : ch.offset+ch.length])
		if err != nil {
			return nil, err
		}
		switch f.Type {
		case Int64:
			out[c], err = refDecodeInt64Chunk(nil, raw, gm.rows)
		case Float64:
			out[c], err = refDecodeFloat64Chunk(nil, raw, gm.rows)
		case String:
			out[c], err = refDecodeStringChunk(nil, raw, gm.rows)
		case Bool:
			out[c], err = refDecodeBoolChunk(nil, raw, gm.rows)
		default:
			err = fmt.Errorf("colfile: unknown type %v", f.Type)
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
