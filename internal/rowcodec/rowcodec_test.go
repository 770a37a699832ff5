package rowcodec

import (
	"fmt"
	"testing"
	"testing/quick"
	"unsafe"

	"streamlake/internal/colfile"
	"streamlake/internal/sim"
)

func TestRoundTrip(t *testing.T) {
	s := colfile.MustSchema("path:string", "rows:int64", "min_ts:int64", "max_ts:int64", "score:float64", "valid:bool")
	rows := []colfile.Row{
		{colfile.StringValue("data/p=1/f1.col"), colfile.IntValue(100), colfile.IntValue(5), colfile.IntValue(50), colfile.FloatValue(0.5), colfile.BoolValue(true)},
		{colfile.StringValue(""), colfile.IntValue(-3), colfile.IntValue(0), colfile.IntValue(0), colfile.FloatValue(-1.25), colfile.BoolValue(false)},
	}
	data, err := Encode(s, rows)
	if err != nil {
		t.Fatal(err)
	}
	gotSchema, gotRows, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !gotSchema.Equal(s) {
		t.Fatalf("schema: %+v", gotSchema)
	}
	if len(gotRows) != len(rows) {
		t.Fatalf("rows: %d", len(gotRows))
	}
	for i := range rows {
		for c := range rows[i] {
			if colfile.Compare(rows[i][c], gotRows[i][c]) != 0 {
				t.Fatalf("row %d col %d: %v != %v", i, c, gotRows[i][c], rows[i][c])
			}
		}
	}
}

func TestEncodeValidates(t *testing.T) {
	s := colfile.MustSchema("a:int64")
	if _, err := Encode(s, []colfile.Row{{colfile.StringValue("x")}}); err == nil {
		t.Fatal("type mismatch accepted")
	}
	if _, err := Encode(s, []colfile.Row{{}}); err == nil {
		t.Fatal("short row accepted")
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	s := colfile.MustSchema("a:int64", "b:string")
	good, _ := Encode(s, []colfile.Row{{colfile.IntValue(7), colfile.StringValue("hello")}})
	for name, data := range map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("XXXX"), good[4:]...),
		"truncated": good[:len(good)-3],
		// A valid batch followed by junk: the batch must end the input.
		"trailing bytes": append(good[:len(good):len(good)], 0xde, 0xad),
		// One field of type 9 and no rows: the schema block is checked
		// even when no row would reach the bad type.
		"unknown type": []byte("SLRC\x01\x01a\x09\x00"),
	} {
		if _, _, err := Decode(data); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

// inShapeTable reports whether a non-empty s is a field name an entry of
// the shape table owns.
func inShapeTable(s string) bool {
	for i := range shapes {
		if e := shapes[i].Load(); e != nil && s != "" {
			for _, f := range e.schema.Fields {
				if unsafe.StringData(f.Name) == unsafe.StringData(s) {
					return true
				}
			}
		}
	}
	return false
}

// inside reports whether s's bytes lie within data's. An empty s is
// inside when its pointer is, since that pointer alone would keep data
// alive.
func inside(s string, data []byte) bool {
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(data)))
	if len(s) == 0 {
		return p >= lo && p < lo+uintptr(len(data))
	}
	return p >= lo && p+uintptr(len(s)) <= lo+uintptr(len(data))
}

// Decode copies no string: every string value shares the input's bytes,
// and so does every field name of a shape the table lacked; an empty one
// is "", which points at nothing in the input. A second decode of the
// shape takes the names the table owns.
func TestDecodeBorrowsStrings(t *testing.T) {
	s := colfile.Schema{Fields: []colfile.Field{
		{Name: "path", Type: colfile.String}, {Name: "n", Type: colfile.Int64},
		{Name: "", Type: colfile.String}, {Name: "tag", Type: colfile.String},
	}}
	rows := []colfile.Row{
		{colfile.StringValue("data/p=1/f1.col"), colfile.IntValue(1), colfile.StringValue("x"), colfile.StringValue("")},
		{colfile.StringValue(""), colfile.IntValue(2), colfile.StringValue(""), colfile.StringValue("hot")},
	}
	data, err := Encode(s, rows)
	if err != nil {
		t.Fatal(err)
	}
	gs, got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what, str string) {
		t.Helper()
		if borrowed := inside(str, data); borrowed != (str != "") {
			t.Fatalf("%s %q: shares the input's bytes = %v", what, str, borrowed)
		}
	}
	for _, f := range gs.Fields {
		if !inShapeTable(f.Name) {
			check("field name", f.Name)
		}
	}
	if !gs.Equal(s) || len(got) != len(rows) {
		t.Fatalf("decoded %v with %d rows", gs, len(got))
	}
	for i, r := range got {
		for c, v := range r {
			if s.Fields[c].Type != colfile.String {
				continue
			}
			if v.Str != rows[i][c].Str {
				t.Fatalf("row %d col %d: %q, want %q", i, c, v.Str, rows[i][c].Str)
			}
			check(fmt.Sprintf("row %d col %d", i, c), v.Str)
		}
	}
}

func TestEmptyBatch(t *testing.T) {
	s := colfile.MustSchema("a:int64")
	data, err := Encode(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	gs, rows, err := Decode(data)
	if err != nil || len(rows) != 0 || !gs.Equal(s) {
		t.Fatalf("empty batch: %v rows=%d", err, len(rows))
	}
}

func TestQuickRoundTrip(t *testing.T) {
	s := colfile.MustSchema("i:int64", "f:float64", "s:string", "b:bool")
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		n := rng.Intn(50)
		rows := make([]colfile.Row, n)
		for i := range rows {
			rows[i] = colfile.Row{
				colfile.IntValue(int64(rng.Uint64())),
				colfile.FloatValue(rng.Float64() * 1e9),
				colfile.StringValue(fmt.Sprintf("%016x", rng.Uint64())[:rng.Intn(16)]),
				colfile.BoolValue(rng.Intn(2) == 0),
			}
		}
		data, err := Encode(s, rows)
		if err != nil {
			return false
		}
		_, got, err := Decode(data)
		if err != nil || len(got) != n {
			return false
		}
		for i := range rows {
			for c := range rows[i] {
				if colfile.Compare(rows[i][c], got[i][c]) != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
