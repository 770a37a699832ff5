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

func appendInt64Chunk(buf []byte, rows []Row, c int) []byte {
	prev := int64(0)
	for _, r := range rows {
		buf = binary.AppendVarint(buf, r[c].Int-prev)
		prev = r[c].Int
	}
	return buf
}

// The decode*Chunk functions append n values to out. n is
// footer-supplied, so each checks it against the chunk before growing out.

func decodeInt64Chunk(out []Value, data []byte, n int) ([]Value, error) {
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

func appendFloat64Chunk(buf []byte, rows []Row, c int) []byte {
	for _, r := range rows {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r[c].Float))
	}
	return buf
}

func decodeFloat64Chunk(out []Value, data []byte, n int) ([]Value, error) {
	if len(data) < 8*n {
		return nil, errors.New("colfile: truncated float64 chunk")
	}
	out = slices.Grow(out, n)
	for i := 0; i < n; i++ {
		out = append(out, FloatValue(math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))))
	}
	return out, nil
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

func decodeStringChunk(out []Value, data []byte, n int) ([]Value, error) {
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

func decodeBoolChunk(out []Value, data []byte, n int) ([]Value, error) {
	if len(data) < (n+7)/8 {
		return nil, errors.New("colfile: truncated bool chunk")
	}
	out = slices.Grow(out, n)
	for i := 0; i < n; i++ {
		out = append(out, BoolValue(data[i/8]&(1<<(i%8)) != 0))
	}
	return out, nil
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

// decodeChunk appends the n values of one compressed chunk to out.
func decodeChunk(out []Value, t Type, data []byte, n int) ([]Value, error) {
	d := inflaters.Get().(*inflater)
	defer inflaters.Put(d)
	raw, err := d.inflate(data)
	if err != nil {
		return nil, fmt.Errorf("colfile: decompress: %w", err)
	}
	switch t {
	case Int64:
		return decodeInt64Chunk(out, raw, n)
	case Float64:
		return decodeFloat64Chunk(out, raw, n)
	case String:
		return decodeStringChunk(out, raw, n)
	case Bool:
		return decodeBoolChunk(out, raw, n)
	default:
		return nil, fmt.Errorf("colfile: unknown type %v", t)
	}
}

// Value wire encoding used in footers (stats) and by the row codec.

// AppendValue appends the wire encoding of v to buf. Together with
// ReadValue it is the shared typed-value codec used by file footers and
// by table-object commit metadata.
func AppendValue(buf []byte, v Value) []byte { return appendValue(buf, v) }

// ReadValue decodes one value from data, returning the remaining bytes.
func ReadValue(data []byte) (Value, []byte, error) { return readValue(data) }

// SkipValue returns the bytes after one encoded value without decoding
// it: nothing is allocated, whatever its type.
func SkipValue(data []byte) ([]byte, error) {
	if len(data) == 0 || Type(data[0]) != String {
		_, rest, err := readValue(data) // allocates for strings only
		return rest, err
	}
	l, sz := binary.Uvarint(data[1:])
	if sz <= 0 || uint64(len(data)-1-sz) < l {
		return nil, errors.New("colfile: truncated string value")
	}
	return data[1+sz+int(l):], nil
}

func appendValue(buf []byte, v Value) []byte {
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

func readValue(data []byte) (Value, []byte, error) {
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
