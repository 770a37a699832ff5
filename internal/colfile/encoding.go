package colfile

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
)

// Column chunk encodings. Each chunk is encoded per its column type, then
// DEFLATE-compressed. Integers use zigzag-varint delta coding (log
// timestamps are near-sorted, so deltas are tiny); strings use dictionary
// coding when cardinality is low (province names, URLs); booleans use a
// bitmap; floats are raw little-endian.

const (
	encPlain byte = iota
	encDict
)

// colEncoder encodes one column's chunk as its values arrive and keeps
// the chunk's range, the first-seen value on ties. The strings it keeps
// (range, dictionary) are the caller's until reset drops them.
type colEncoder struct {
	t        Type
	n        int    // values in the chunk
	raw      []byte // the chunk so far; a dictionary chunk's codes
	spare    []byte // a string chunk's second buffer
	prev     int64  // an int64 chunk's delta base
	min, max Value
	plain    bool // a string chunk past 256 distinct values
	dict     map[string]byte
	words    []string // the dictionary, first seen first
}

// reset empties e for a chunk of type t, keeping its buffers.
func (e *colEncoder) reset(t Type) {
	clear(e.dict)
	clear(e.words)
	e.t, e.n, e.prev, e.plain, e.min, e.max = t, 0, 0, false, Value{}, Value{}
	e.raw, e.words = e.raw[:0], e.words[:0]
}

func (e *colEncoder) add(v Value) {
	switch e.t {
	case Int64:
		e.raw = binary.AppendVarint(e.raw, v.Int-e.prev)
		e.prev = v.Int
	case Float64:
		e.raw = binary.LittleEndian.AppendUint64(e.raw, math.Float64bits(v.Float))
	case String:
		e.addString(v.Str)
	case Bool:
		if e.n%8 == 0 {
			e.raw = append(e.raw, 0)
		}
		if v.Bool {
			e.raw[len(e.raw)-1] |= 1 << (e.n % 8)
		}
	}
	if e.n == 0 || Compare(v, e.min) < 0 {
		e.min = v
	}
	if e.n == 0 || Compare(v, e.max) > 0 {
		e.max = v
	}
	e.n++
}

// addString appends s's dictionary code, a value equal to the last one
// repeating its code without a lookup; the 257th distinct value turns
// the chunk plain.
func (e *colEncoder) addString(s string) {
	if !e.plain {
		if e.n > 0 && e.words[e.raw[len(e.raw)-1]] == s {
			e.raw = append(e.raw, e.raw[len(e.raw)-1])
			return
		}
		code, ok := e.dict[s]
		if !ok && len(e.words) < 256 {
			if e.dict == nil {
				e.dict = make(map[string]byte)
			}
			code, ok = byte(len(e.words)), true
			e.dict[s], e.words = code, append(e.words, s)
		}
		if ok {
			e.raw = append(e.raw, code)
			return
		}
		e.toPlain()
	}
	e.raw = binary.AppendUvarint(e.raw, uint64(len(s)))
	e.raw = append(e.raw, s...)
}

// toPlain rewrites a dictionary chunk's codes as the plain encoding.
func (e *colEncoder) toPlain() {
	e.spare = append(e.spare[:0], encPlain)
	for _, code := range e.raw {
		e.spare = binary.AppendUvarint(e.spare, uint64(len(e.words[code])))
		e.spare = append(e.spare, e.words[code]...)
	}
	e.raw, e.spare, e.plain = e.spare, e.raw, true
}

// chunk returns the uncompressed chunk as head then body. A string chunk
// is its dictionary ahead of the codes while the dictionary is under
// half the values; otherwise it is plain.
func (e *colEncoder) chunk() (head, body []byte) {
	if e.t == String && !e.plain && 2*len(e.words) >= e.n {
		e.toPlain()
	}
	if e.t != String || e.plain {
		return nil, e.raw
	}
	e.spare = binary.AppendUvarint(append(e.spare[:0], encDict), uint64(len(e.words)))
	for _, w := range e.words {
		e.spare = binary.AppendUvarint(e.spare, uint64(len(w)))
		e.spare = append(e.spare, w...)
	}
	return e.spare, e.raw
}

// The decode*Chunk functions append n values to out. n is
// footer-supplied, so each checks it against the chunk before growing out.

func decodeInt64Chunk(out []int64, data []byte, n int) ([]int64, error) {
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
		out = append(out, prev)
	}
	return out, nil
}

func decodeFloat64Chunk(out []float64, data []byte, n int) ([]float64, error) {
	if len(data) < 8*n {
		return nil, errors.New("colfile: truncated float64 chunk")
	}
	out = slices.Grow(out, n)
	for i := 0; i < n; i++ {
		out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:])))
	}
	return out, nil
}

func decodeStringChunk(out []string, data []byte, n int) ([]string, error) {
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
			out = append(out, words[code])
		}
	case encPlain:
		for i := 0; i < n; i++ {
			l, sz := binary.Uvarint(data)
			if sz <= 0 || uint64(len(data)-sz) < l {
				return nil, errors.New("colfile: truncated string")
			}
			data = data[sz:]
			out = append(out, string(data[:l]))
			data = data[l:]
		}
	default:
		return nil, fmt.Errorf("colfile: unknown string encoding %d", enc)
	}
	return out, nil
}

func decodeBoolChunk(out []bool, data []byte, n int) ([]bool, error) {
	if len(data) < (n+7)/8 {
		return nil, errors.New("colfile: truncated bool chunk")
	}
	out = slices.Grow(out, n)
	for i := 0; i < n; i++ {
		out = append(out, data[i/8]&(1<<(i%8)) != 0)
	}
	return out, nil
}

// inflater is the reusable state of one chunk decode: the DEFLATE
// reader (reset per chunk rather than rebuilt) and the buffer it
// inflates into. Decoded values never alias raw, so it is safe to pool.
type inflater struct {
	src bytes.Reader
	fr  io.ReadCloser
	raw bytes.Buffer
}

var inflaters = sync.Pool{New: func() any { return new(inflater) }}

// inflate decompresses one chunk into d.raw, valid until the next call.
func (d *inflater) inflate(data []byte) ([]byte, error) {
	d.src.Reset(data)
	if d.fr == nil {
		d.fr = flate.NewReader(&d.src)
	} else if err := d.fr.(flate.Resetter).Reset(&d.src, nil); err != nil {
		return nil, err
	}
	d.raw.Reset()
	if _, err := d.raw.ReadFrom(d.fr); err != nil {
		return nil, err
	}
	return d.raw.Bytes(), nil
}

// decodeChunk decodes the n values of one compressed chunk of type t
// into dst, over what it held.
func decodeChunk(dst *Column, t Type, data []byte, n int) error {
	d := inflaters.Get().(*inflater)
	defer inflaters.Put(d)
	raw, err := d.inflate(data)
	if err != nil {
		return fmt.Errorf("colfile: decompress: %w", err)
	}
	dst.Type = t
	switch t {
	case Int64:
		dst.Ints, err = decodeInt64Chunk(dst.Ints[:0], raw, n)
	case Float64:
		dst.Floats, err = decodeFloat64Chunk(dst.Floats[:0], raw, n)
	case String:
		dst.Strs, err = decodeStringChunk(dst.Strs[:0], raw, n)
	case Bool:
		dst.Bools, err = decodeBoolChunk(dst.Bools[:0], raw, n)
	default:
		err = fmt.Errorf("colfile: unknown type %v", t)
	}
	return err
}

// Value wire encoding used in footers (stats) and by the row codec.

// SkipValue returns the bytes after one encoded value without decoding
// it: nothing is allocated, whatever its type.
func SkipValue(data []byte) ([]byte, error) {
	if len(data) == 0 || Type(data[0]) != String {
		_, rest, err := ReadValue(data) // allocates for strings only
		return rest, err
	}
	l, sz := binary.Uvarint(data[1:])
	if sz <= 0 || uint64(len(data)-1-sz) < l {
		return nil, errors.New("colfile: truncated string value")
	}
	return data[1+sz+int(l):], nil
}

// AppendValue appends the wire encoding of v to buf. Together with
// ReadValue it is the shared typed-value codec used by file footers and
// by table-object commit metadata.
func AppendValue(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.Type))
	var tmp [binary.MaxVarintLen64]byte
	switch v.Type {
	case Int64:
		n := binary.PutVarint(tmp[:], v.Int)
		buf = append(buf, tmp[:n]...)
	case Float64:
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.Float))
		buf = append(buf, b[:]...)
	case String:
		n := binary.PutUvarint(tmp[:], uint64(len(v.Str)))
		buf = append(buf, tmp[:n]...)
		buf = append(buf, v.Str...)
	case Bool:
		if v.Bool {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

// ReadValue decodes one value from data, returning the remaining bytes.
func ReadValue(data []byte) (Value, []byte, error) {
	if len(data) < 1 {
		return Value{}, nil, errors.New("colfile: truncated value")
	}
	t := Type(data[0])
	data = data[1:]
	switch t {
	case Int64:
		i, sz := binary.Varint(data)
		if sz <= 0 {
			return Value{}, nil, errors.New("colfile: truncated int value")
		}
		return IntValue(i), data[sz:], nil
	case Float64:
		if len(data) < 8 {
			return Value{}, nil, errors.New("colfile: truncated float value")
		}
		return FloatValue(math.Float64frombits(binary.LittleEndian.Uint64(data))), data[8:], nil
	case String:
		l, sz := binary.Uvarint(data)
		if sz <= 0 || uint64(len(data)-sz) < l {
			return Value{}, nil, errors.New("colfile: truncated string value")
		}
		data = data[sz:]
		return StringValue(string(data[:l])), data[l:], nil
	case Bool:
		if len(data) < 1 {
			return Value{}, nil, errors.New("colfile: truncated bool value")
		}
		return BoolValue(data[0] != 0), data[1:], nil
	default:
		return Value{}, nil, fmt.Errorf("colfile: unknown value type %d", t)
	}
}
