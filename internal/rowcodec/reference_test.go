package rowcodec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"streamlake/internal/colfile"
)

// refEncode is Encode as it was written before the Append functions:
// with refDecode (shape_test.go), the reference FuzzDecoder holds the
// codec to.
func refEncode(schema colfile.Schema, rows []colfile.Row) ([]byte, error) {
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

// FuzzDecoder holds the codec to its reference on arbitrary input:
// Decode accepts exactly the batches refDecode accepts and returns the
// same schema and rows; a Decoder reading them into one reused row sees
// the same rows and fails where Decode fails; and Encode, like
// AppendHeader and AppendField (AppendString of the bytes for strings)
// called by hand, writes refEncode's bytes.
func FuzzDecoder(f *testing.F) {
	schema := colfile.MustSchema("a:int64", "b:string", "c:float64", "d:bool")
	for _, rows := range [][]colfile.Row{nil, {
		{colfile.IntValue(-7), colfile.StringValue("hello"), colfile.FloatValue(1.5), colfile.BoolValue(true)},
		{colfile.IntValue(1 << 40), colfile.StringValue(""), colfile.FloatValue(math.Inf(-1)), colfile.BoolValue(false)},
	}} {
		valid, _ := refEncode(schema, rows)
		f.Add(valid)
		f.Add(valid[:len(valid)-1])
	}
	f.Add([]byte("SLRC"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, rrows, rerr := refDecode(data)
		s, rows, err := Decode(data)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("Decode: %v; the reference: %v", err, rerr)
		}
		var d Decoder
		derr := d.Reset(data)
		row := make(colfile.Row, d.Schema.NumFields())
		for i := 0; derr == nil && d.Len() > 0; i++ {
			if derr = d.Next(row); derr == nil && rerr == nil && (i >= len(rrows) || !sameRow(row, rrows[i])) {
				t.Fatalf("Decoder row %d: %v, the reference %v", i, row, rrows)
			}
		}
		if (derr == nil) != (rerr == nil) {
			t.Fatalf("Decoder: %v; the reference: %v", derr, rerr)
		}
		if err != nil {
			return
		}
		if !s.Equal(rs) || len(rows) != len(rrows) {
			t.Fatalf("Decode: %v, %d rows; the reference: %v, %d rows", s, len(rows), rs, len(rrows))
		}
		for i := range rows {
			if !sameRow(rows[i], rrows[i]) {
				t.Fatalf("row %d: %v, the reference %v", i, rows[i], rrows[i])
			}
		}
		want, werr := refEncode(s, rows)
		got, gerr := Encode(s, rows)
		byHand := AppendHeader(nil, s, len(rows))
		for _, r := range rows {
			for _, v := range r {
				if v.Type == colfile.String {
					byHand = AppendString(byHand, []byte(v.Str))
				} else {
					byHand = AppendField(byHand, v)
				}
			}
		}
		if werr != nil || gerr != nil || !bytes.Equal(got, want) || !bytes.Equal(byHand, want) {
			t.Fatalf("encoding a decoded batch: %x (%v), by hand %x; the reference %x (%v)", got, gerr, byHand, want, werr)
		}
	})
}

// sameRow compares two rows value by value, floats by their bits.
func sameRow(a, b colfile.Row) bool {
	for i := range a {
		v, w := a[i], b[i]
		if v.Type != w.Type || v.Str != w.Str || v.Int != w.Int || v.Bool != w.Bool ||
			math.Float64bits(v.Float) != math.Float64bits(w.Float) {
			return false
		}
	}
	return len(a) == len(b)
}
