package tableobj

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"streamlake/internal/colfile"
	"streamlake/internal/sim"
)

// A file's stats keep their encoding byte-for-byte — that is what keeps
// metadata (and replay digests) identical.
func TestStatsEncodingUnchanged(t *testing.T) {
	f := DataFile{
		Min: []colfile.Value{colfile.IntValue(1), colfile.StringValue("a")},
		Max: []colfile.Value{colfile.IntValue(9), colfile.StringValue("z")},
	}
	enc := string(encodeStats(nil, f))
	var legacy []byte
	legacy = append(legacy, 2) // uvarint field count
	for i := range f.Min {
		legacy = colfile.AppendValue(legacy, f.Min[i])
		legacy = colfile.AppendValue(legacy, f.Max[i])
	}
	if enc != string(legacy) {
		t.Fatalf("legacy encoding drifted:\n got %x\nwant %x", enc, legacy)
	}
	var back DataFile
	if err := decodeStats([]byte(enc), &back, true); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Min, f.Min) || !reflect.DeepEqual(back.Max, f.Max) {
		t.Fatalf("round trip: %+v", back)
	}
}

// naiveRange is one Compare pass over rows, the first-seen value kept on
// ties: how WriteRows took a file's range before it read the writer's.
func naiveRange(rows []colfile.Row) (lo, hi []colfile.Value) {
	lo = append([]colfile.Value(nil), rows[0]...)
	hi = append([]colfile.Value(nil), rows[0]...)
	for _, r := range rows {
		for c := range r {
			if colfile.Compare(r[c], lo[c]) < 0 {
				lo[c] = r[c]
			}
			if colfile.Compare(r[c], hi[c]) > 0 {
				hi[c] = r[c]
			}
		}
	}
	return lo, hi
}

func sameValues(a, b []colfile.Value) bool {
	for i := range a {
		if a[i].Type != b[i].Type || a[i].Int != b[i].Int || a[i].Str != b[i].Str || a[i].Bool != b[i].Bool ||
			math.Float64bits(a[i].Float) != math.Float64bits(b[i].Float) {
			return false
		}
	}
	return len(a) == len(b)
}

// A file's range comes from the writer's row-group stats; on files of
// three row groups it is what one Compare pass over the rows gives.
// Column z holds only -0 and +0, which compare equal, so its bits show
// which value a tie kept.
func TestWriteRowsStatsMatchNaivePass(t *testing.T) {
	schema := colfile.MustSchema("k:int64", "f:float64", "z:float64", "s:string", "b:bool", "p:string")
	e := newEnv(t)
	tbl, _, err := Create(e.clock, e.fs, e.cat, TableMeta{Name: "st", Path: "/lake/st", Schema: schema, PartitionColumn: "p"})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(7)
	const group = colfile.DefaultRowGroupSize
	for trial := 0; trial < 4; trial++ {
		rows := make([]colfile.Row, 2*group+1+rng.Intn(500))
		for i := range rows {
			rows[i] = colfile.Row{
				colfile.IntValue(int64(rng.Intn(50))),
				colfile.FloatValue(rng.Float64() - 0.5),
				colfile.FloatValue(math.Copysign(0, float64(rng.Intn(2))-0.5)),
				colfile.StringValue(fmt.Sprintf("s%d", rng.Intn(40))),
				colfile.BoolValue(rng.Intn(2) == 0),
				colfile.StringValue("A"),
			}
		}
		x, err := tbl.Begin()
		if err != nil {
			t.Fatal(err)
		}
		f, err := x.WriteRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		x.Abort()
		if lo, hi := naiveRange(rows); !sameValues(f.Min, lo) || !sameValues(f.Max, hi) {
			t.Fatalf("trial %d: file range %v..%v, one pass gives %v..%v", trial, f.Min, f.Max, lo, hi)
		}
	}
}

// Planning checks every admitted entry's statistics with Check, which
// walks them as File decodes them but keeps nothing: string bounds cost
// no allocation.
func TestCheckAllocatesNothing(t *testing.T) {
	s := colfile.StringValue
	f := DataFile{Min: []colfile.Value{s("a"), colfile.IntValue(1)}, Max: []colfile.Value{s("z"), colfile.IntValue(9)}}
	ent := entryOfFile(f)
	if n := testing.AllocsPerRun(10, func() {
		if err := ent.Check(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Check allocates %.0f times", n)
	}
}
