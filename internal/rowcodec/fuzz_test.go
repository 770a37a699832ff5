package rowcodec

import (
	"math"
	"testing"

	"streamlake/internal/colfile"
)

// FuzzDecode hardens the record-batch parser against arbitrary input. A
// successful decode must be internally consistent, borrow every string
// value from the input and every field name from the input or the shape
// table, and survive a round trip: re-encoding what it returned and
// decoding that again gives an equal schema and equal rows.
func FuzzDecode(f *testing.F) {
	schema := colfile.MustSchema("a:int64", "b:string")
	valid, _ := Encode(schema, []colfile.Row{
		{colfile.IntValue(7), colfile.StringValue("hello")},
	})
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("SLRC"))
	f.Add(valid[:len(valid)-2])
	f.Fuzz(func(t *testing.T, data []byte) {
		s, rows, err := Decode(data)
		if err != nil {
			return
		}
		for _, fl := range s.Fields {
			if fl.Name != "" && !inside(fl.Name, data) && !inShapeTable(fl.Name) {
				t.Fatalf("field name %q copied out of the input, not from the shape table", fl.Name)
			}
		}
		for _, r := range rows {
			if len(r) != s.NumFields() {
				t.Fatalf("row width %d != schema %d", len(r), s.NumFields())
			}
			for _, v := range r {
				if v.Str != "" && !inside(v.Str, data) {
					t.Fatalf("string %q copied out of the input", v.Str)
				}
			}
		}
		again, err := Encode(s, rows)
		if err != nil {
			t.Fatalf("re-encoding a decoded batch: %v", err)
		}
		s2, rows2, err := Decode(again)
		if err != nil {
			t.Fatalf("decoding a re-encoded batch: %v", err)
		}
		if !s2.Equal(s) || len(rows2) != len(rows) {
			t.Fatalf("round trip: schema %v rows %d, want %v rows %d", s2, len(rows2), s, len(rows))
		}
		for i := range rows {
			for c, v := range rows[i] {
				w := rows2[i][c]
				if v.Type != w.Type || v.Str != w.Str || v.Int != w.Int || v.Bool != w.Bool ||
					math.Float64bits(v.Float) != math.Float64bits(w.Float) {
					t.Fatalf("round trip: row %d col %d: %+v, want %+v", i, c, w, v)
				}
			}
		}
	})
}
