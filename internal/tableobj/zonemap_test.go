package tableobj

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"streamlake/internal/colfile"
	"streamlake/internal/sim"
)

// Files written without zone maps must keep the legacy stats encoding
// byte-for-byte — that is what keeps metadata (and replay digests)
// identical when the feature is off.
func TestStatsLegacyEncodingUnchanged(t *testing.T) {
	f := DataFile{
		Min: []colfile.Value{colfile.IntValue(1), colfile.StringValue("a")},
		Max: []colfile.Value{colfile.IntValue(9), colfile.StringValue("z")},
	}
	enc := encodeStats(f)
	if enc[0] == statsV2Marker {
		t.Fatal("zone-free stats picked the v2 encoding")
	}
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
	if back.Zones != nil || back.Blooms != nil {
		t.Fatal("legacy decode invented zones/blooms")
	}
}

// V2 stats (zones + blooms) survive a full commit encode/decode cycle.
func TestStatsV2RoundTripThroughCommit(t *testing.T) {
	bloom := NewBloom(3)
	bloom.Add(colfile.IntValue(7))
	bloom.Add(colfile.IntValue(42))
	f := DataFile{
		Path: "/lake/t/data/default/000000000001.col", Partition: "default",
		Rows: 4, Bytes: 128,
		Min: []colfile.Value{colfile.IntValue(1)},
		Max: []colfile.Value{colfile.IntValue(42)},
		Zones: []ZoneMap{
			{Min: []colfile.Value{colfile.IntValue(1)}, Max: []colfile.Value{colfile.IntValue(7)}},
			{Min: []colfile.Value{colfile.IntValue(40)}, Max: []colfile.Value{colfile.IntValue(42)}},
		},
		Blooms: []*Bloom{bloom},
	}
	blob, err := EncodeCommit(Commit{ID: 1, Ops: []FileOp{{Add: true, File: f}}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := DecodeCommit(blob)
	if err != nil {
		t.Fatal(err)
	}
	got := c.Ops[0].File
	if !reflect.DeepEqual(got.Zones, f.Zones) {
		t.Fatalf("zones: %+v", got.Zones)
	}
	if len(got.Blooms) != 1 || got.Blooms[0].K != bloom.K || !bytes.Equal(got.Blooms[0].Bits, bloom.Bits) {
		t.Fatalf("blooms: %+v", got.Blooms)
	}
	if !got.Blooms[0].MayContain(colfile.IntValue(42)) {
		t.Fatal("decoded bloom lost a member")
	}
	// A nil bloom entry (column without a filter) round-trips as nil.
	f.Blooms = []*Bloom{nil}
	blob, _ = EncodeCommit(Commit{ID: 2, Ops: []FileOp{{Add: true, File: f}}})
	c, err = DecodeCommit(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Ops[0].File.Blooms; len(got) != 1 || got[0] != nil {
		t.Fatalf("nil bloom round trip: %+v", got)
	}
}

func TestBloomMembership(t *testing.T) {
	b := NewBloom(100)
	for i := 0; i < 100; i++ {
		b.Add(colfile.StringValue(fmt.Sprintf("member-%d", i)))
	}
	for i := 0; i < 100; i++ {
		if !b.MayContain(colfile.StringValue(fmt.Sprintf("member-%d", i))) {
			t.Fatalf("false negative on member-%d", i)
		}
	}
	fp := 0
	for i := 0; i < 1000; i++ {
		if b.MayContain(colfile.StringValue(fmt.Sprintf("absent-%d", i))) {
			fp++
		}
	}
	// ~1% expected at 10 bits/key; 5% is far beyond noise.
	if fp > 50 {
		t.Fatalf("false positive rate %d/1000", fp)
	}
	// A nil filter can never prune.
	var nilBloom *Bloom
	if !nilBloom.MayContain(colfile.IntValue(1)) {
		t.Fatal("nil bloom pruned")
	}
}

// With zone maps enabled on the table handle, WriteRows takes the
// per-row-group ranges the writer recorded in the footer and builds
// per-column blooms covering every written value; disabled, files carry
// neither.
func TestWriteRowsHarvestsZoneMaps(t *testing.T) {
	e := newEnv(t)
	tbl := createTable(t, e, "zm")
	tbl.SetZoneMaps(true)
	var rows []colfile.Row
	for i := 0; i < 500; i++ {
		rows = append(rows, dpiRow(fmt.Sprintf("u%03d", i), int64(i), "bj"))
	}
	x, err := tbl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	f, err := x.WriteRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Zones) == 0 {
		t.Fatal("no zones harvested")
	}
	for _, z := range f.Zones {
		if len(z.Min) != dpiSchema.NumFields() || len(z.Max) != dpiSchema.NumFields() {
			t.Fatalf("zone not schema-aligned: %+v", z)
		}
	}
	// Zone ranges must cover the file range for the int column.
	ts := dpiSchema.FieldIndex("start_time")
	lo, hi := f.Zones[0].Min[ts], f.Zones[len(f.Zones)-1].Max[ts]
	if colfile.Compare(lo, f.Min[ts]) != 0 || colfile.Compare(hi, f.Max[ts]) != 0 {
		t.Fatalf("zones don't span the file: %v..%v vs %v..%v", lo, hi, f.Min[ts], f.Max[ts])
	}
	if len(f.Blooms) != dpiSchema.NumFields() {
		t.Fatalf("blooms: %d", len(f.Blooms))
	}
	for _, r := range rows {
		for c := range r {
			if !f.Blooms[c].MayContain(r[c]) {
				t.Fatalf("bloom false negative on %v", r[c])
			}
		}
	}
	if _, err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	// And the committed snapshot preserves them.
	snap, _, err := tbl.Current()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Files) != 1 || len(snap.Files[0].Zones) != len(f.Zones) {
		t.Fatalf("snapshot dropped zones: %+v", snap.Files)
	}

	tbl.SetZoneMaps(false)
	x2, _ := tbl.Begin()
	f2, err := x2.WriteRows(rows[:10])
	if err != nil {
		t.Fatal(err)
	}
	if f2.Zones != nil || f2.Blooms != nil {
		t.Fatal("zone maps collected while disabled")
	}
	x2.Abort()
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
// three row groups it is what one Compare pass over the rows gives, and
// each zone what the pass gives over its group. Column z holds only -0
// and +0, which compare equal, so its bits show which value a tie kept.
func TestWriteRowsStatsMatchNaivePass(t *testing.T) {
	schema := colfile.MustSchema("k:int64", "f:float64", "z:float64", "s:string", "b:bool", "p:string")
	e := newEnv(t)
	tbl, _, err := Create(e.clock, e.fs, e.cat, TableMeta{Name: "st", Path: "/lake/st", Schema: schema, PartitionColumn: "p"})
	if err != nil {
		t.Fatal(err)
	}
	tbl.SetZoneMaps(true)
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
		if len(f.Zones) != 3 {
			t.Fatalf("trial %d: %d zones, want 3", trial, len(f.Zones))
		}
		for g, z := range f.Zones {
			if lo, hi := naiveRange(rows[g*group : min((g+1)*group, len(rows))]); !sameValues(z.Min, lo) || !sameValues(z.Max, hi) {
				t.Fatalf("trial %d zone %d: %v..%v, one pass gives %v..%v", trial, g, z.Min, z.Max, lo, hi)
			}
		}
	}
}

// Planning checks every admitted entry's statistics with Check, which
// walks them as File decodes them but keeps nothing: extended stats with
// string bounds, zone maps and blooms cost no allocation.
func TestCheckAllocatesNothing(t *testing.T) {
	b := NewBloom(8)
	b.Add(colfile.StringValue("bj"))
	s := colfile.StringValue
	f := DataFile{Min: []colfile.Value{s("a"), colfile.IntValue(1)}, Max: []colfile.Value{s("z"), colfile.IntValue(9)},
		Zones:  []ZoneMap{{Min: []colfile.Value{s("a"), colfile.IntValue(1)}, Max: []colfile.Value{s("m"), colfile.IntValue(4)}}},
		Blooms: []*Bloom{b, nil}}
	ent := entryOfFile(f)
	if !ent.Extended() {
		t.Fatal("the entry's stats are not extended")
	}
	if n := testing.AllocsPerRun(10, func() {
		if err := ent.Check(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Check allocates %.0f times", n)
	}
}
