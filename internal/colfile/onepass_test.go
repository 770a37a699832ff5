package colfile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// twoPassStringChunk is the string encoder as it was before codes were
// assigned while building the dictionary: one pass sizes the dictionary,
// a second looks every row's code up. Kept as the reference.
func twoPassStringChunk(buf []byte, rows []Row, c int) []byte {
	dict := make(map[string]int)
	for _, r := range rows {
		if _, ok := dict[r[c].Str]; !ok {
			if len(dict) >= 256 {
				dict = nil
				break
			}
			dict[r[c].Str] = len(dict)
		}
	}
	if dict != nil && len(dict)*2 < len(rows) {
		buf = append(buf, encDict)
		words := make([]string, len(dict))
		for w, i := range dict {
			words[i] = w
		}
		buf = binary.AppendUvarint(buf, uint64(len(words)))
		for _, w := range words {
			buf = binary.AppendUvarint(buf, uint64(len(w)))
			buf = append(buf, w...)
		}
		for _, r := range rows {
			buf = append(buf, byte(dict[r[c].Str]))
		}
		return buf
	}
	buf = append(buf, encPlain)
	for _, r := range rows {
		buf = binary.AppendUvarint(buf, uint64(len(r[c].Str)))
		buf = append(buf, r[c].Str...)
	}
	return buf
}

// stringRows returns n one-column rows drawn from `distinct` values, the
// empty string among them; about a third repeat the previous row's.
func stringRows(rng *rand.Rand, n, distinct int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		v := ""
		if k := rng.Intn(distinct); k > 0 {
			v = fmt.Sprintf("w%d", k)
		}
		if i > 0 && rng.Intn(3) == 0 {
			v = rows[i-1][0].Str
		}
		rows[i] = Row{StringValue(v)}
	}
	return rows
}

// The incremental string encoder writes what the two-pass one wrote,
// byte for byte, whatever chunks its buffers held before: random chunks,
// exactly 256 and 257 distinct values (the fallback edge), chunks on
// both sides of the len(dict)*2 < len(rows) rule, and empty strings.
func TestStringChunkMatchesTwoPassReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var cases [][]Row
	for i := 0; i < 200; i++ {
		cases = append(cases, stringRows(rng, rng.Intn(600), 1+rng.Intn(300)))
	}
	for _, distinct := range []int{256, 257} {
		rows := make([]Row, 2*distinct+1)
		for i := range rows {
			rows[i] = Row{StringValue(fmt.Sprintf("v%d", i%distinct))}
		}
		cases = append(cases, rows)
	}
	for _, n := range []int{1, 2, 3, 10, 64} { // n distinct in 2n rows: plain; in 2n+1: dictionary
		for _, extra := range []int{0, 1} {
			rows := make([]Row, 2*n+extra)
			for i := range rows {
				rows[i] = Row{StringValue(fmt.Sprintf("d%d", i%n))}
			}
			cases = append(cases, rows)
		}
	}
	cases = append(cases, nil, []Row{{StringValue("")}}, []Row{{StringValue("")}, {StringValue("")}, {StringValue("")}})
	var e colEncoder // one encoder for every case, reset between
	for i, rows := range cases {
		e.reset(String)
		for _, r := range rows {
			e.add(r[0])
		}
		head, body := e.chunk()
		if got := append(append([]byte(nil), head...), body...); !bytes.Equal(got, twoPassStringChunk(nil, rows, 0)) {
			t.Fatalf("case %d (%d rows): incremental chunk differs from the two-pass reference", i, len(rows))
		}
	}
}

// sameValue compares two cells bit for bit (NaN equals itself, -0 does
// not equal +0).
func sameValue(a, b Value) bool {
	return a.Type == b.Type && a.Int == b.Int && math.Float64bits(a.Float) == math.Float64bits(b.Float) &&
		a.Str == b.Str && a.Bool == b.Bool
}

// scanAll assembles r's rows from the columns ReadGroup returns, the
// reference RowDecoder is checked against.
func scanAll(t testing.TB, r *Reader) []Row {
	t.Helper()
	var rows []Row
	for g := 0; g < r.NumRowGroups(); g++ {
		cols, err := r.ReadGroup(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < r.GroupRows(g); i++ {
			row := make(Row, len(cols))
			for c := range cols {
				row[c] = cols[c][i]
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// One RowDecoder reused across files of 3, 1, 5 and 2 row groups returns
// exactly what ReadGroup's columns hold; earlier results survive later calls; a row
// can grow without reaching its neighbour; a file that fails mid-way
// appends nothing.
func TestRowDecoderMatchesScan(t *testing.T) {
	var dec RowDecoder
	var kept [][]Row
	var files []*Reader
	for _, shape := range []struct{ rows, group int }{{250, 100}, {40, 0}, {1000, 200}, {7, 4}} {
		r, err := Open(buildFile(t, shape.rows, shape.group))
		if err != nil {
			t.Fatal(err)
		}
		prefix := []Row{{IntValue(-1)}}
		got, err := dec.AppendRows(prefix, r)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1+shape.rows || !sameValue(got[0][0], IntValue(-1)) {
			t.Fatalf("%d-row file: %d rows after the prefix", shape.rows, len(got)-1)
		}
		kept, files = append(kept, got[1:]), append(files, r)
	}
	for f, rows := range kept {
		want := scanAll(t, files[f])
		for i := range want {
			for c := range want[i] {
				if !sameValue(rows[i][c], want[i][c]) {
					t.Fatalf("file %d row %d column %d: %v, ReadGroup gives %v", f, i, c, rows[i][c], want[i][c])
				}
			}
		}
	}
	grown := append(kept[0][0], IntValue(7))
	if !sameValue(kept[0][1][0], makeRow(1)[0]) || len(grown) != len(testSchema.Fields)+1 {
		t.Fatal("appending to a decoded row wrote into the next one")
	}

	data := buildFile(t, 300, 100)
	r, _ := Open(data)
	ch := r.groups[2].chunks[0]
	data[ch.offset] |= 0x06 // the last group's first block: reserved type
	bad, _ := Open(data)
	got, err := dec.AppendRows(kept[1], bad)
	if err == nil || len(got) != len(kept[1]) {
		t.Fatalf("a file failing in its last group: err %v, %d rows appended", err, len(got)-len(kept[1]))
	}
}
