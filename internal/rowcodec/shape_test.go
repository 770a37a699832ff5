package rowcodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"streamlake/internal/colfile"
	"streamlake/internal/sim"
)

// refDecode is a reference parser of the batch format, written apart from
// Decode: it copies every string and keeps no state between calls.
func refDecode(data []byte) (colfile.Schema, []colfile.Row, error) {
	bad := errors.New("ref: corrupt")
	if len(data) < 4 || string(data[:4]) != "SLRC" {
		return colfile.Schema{}, nil, bad
	}
	data = data[4:]
	uvarint := func() (uint64, bool) {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, false
		}
		data = data[n:]
		return v, true
	}
	take := func(n uint64) ([]byte, bool) {
		if n > uint64(len(data)) {
			return nil, false
		}
		b := data[:n]
		data = data[n:]
		return b, true
	}
	var s colfile.Schema
	nf, ok := uvarint()
	for i := uint64(0); ok && i < nf; i++ {
		var nl uint64
		var name, typ []byte
		if nl, ok = uvarint(); ok {
			if name, ok = take(nl); ok {
				typ, ok = take(1)
			}
		}
		if ok = ok && colfile.Type(typ[0]) <= colfile.Bool; ok {
			s.Fields = append(s.Fields, colfile.Field{Name: string(name), Type: colfile.Type(typ[0])})
		}
	}
	var rows []colfile.Row
	var nr uint64
	if ok {
		nr, ok = uvarint()
	}
	// Decode takes a row for at least a byte, even of no fields: a count
	// past the bytes left is corrupt.
	ok = ok && nr <= uint64(len(data))+1
	for i := uint64(0); ok && i < nr; i++ {
		row := colfile.Row{}
		for c := 0; ok && c < len(s.Fields); c++ {
			var b []byte
			switch s.Fields[c].Type {
			case colfile.Int64:
				v, n := binary.Varint(data)
				if ok = n > 0; ok {
					data = data[n:]
					row = append(row, colfile.IntValue(v))
				}
			case colfile.Float64:
				if b, ok = take(8); ok {
					row = append(row, colfile.FloatValue(math.Float64frombits(binary.LittleEndian.Uint64(b))))
				}
			case colfile.String:
				var l uint64
				if l, ok = uvarint(); ok {
					if b, ok = take(l); ok {
						row = append(row, colfile.StringValue(string(b)))
					}
				}
			case colfile.Bool:
				if b, ok = take(1); ok {
					row = append(row, colfile.BoolValue(b[0] != 0))
				}
			}
		}
		rows = append(rows, row)
	}
	if !ok || len(data) > 0 {
		return colfile.Schema{}, nil, bad
	}
	return s, rows, nil
}

// sameDecode reports how a decode differs from the reference's, or "".
func sameDecode(s colfile.Schema, rows []colfile.Row, err error, ws colfile.Schema, wrows []colfile.Row, werr error) string {
	if (err == nil) != (werr == nil) {
		return fmt.Sprintf("error %v, reference %v", err, werr)
	}
	if err != nil {
		return ""
	}
	if !s.Equal(ws) || len(rows) != len(wrows) {
		return fmt.Sprintf("schema %v and %d rows, reference %v and %d", s, len(rows), ws, len(wrows))
	}
	for i := range rows {
		for c, v := range rows[i] {
			if w := wrows[i][c]; v.Type != w.Type || v.Str != w.Str || v.Int != w.Int || v.Bool != w.Bool ||
				math.Float64bits(v.Float) != math.Float64bits(w.Float) {
				return fmt.Sprintf("row %d col %d: %+v, reference %+v", i, c, v, w)
			}
		}
	}
	return ""
}

// randomBatch encodes up to four rows of one of 24 shapes: field names
// and types drawn from the shape number, so shapes recur across calls.
func randomBatch(rng *sim.RNG) []byte {
	shape := rng.Intn(24)
	var s colfile.Schema
	for c := 0; c <= shape%5; c++ {
		s.Fields = append(s.Fields, colfile.Field{Name: fmt.Sprintf("f%d_%d", shape, c), Type: colfile.Type((shape + c) % 4)})
	}
	rows := make([]colfile.Row, rng.Intn(4))
	for i := range rows {
		for _, f := range s.Fields {
			switch f.Type {
			case colfile.Int64:
				rows[i] = append(rows[i], colfile.IntValue(int64(rng.Uint64())))
			case colfile.Float64:
				rows[i] = append(rows[i], colfile.FloatValue(math.Float64frombits(rng.Uint64())))
			case colfile.String:
				rows[i] = append(rows[i], colfile.StringValue(fmt.Sprintf("%x", rng.Uint64())[:rng.Intn(16)]))
			case colfile.Bool:
				rows[i] = append(rows[i], colfile.BoolValue(rng.Intn(2) == 0))
			}
		}
	}
	data, err := Encode(s, rows)
	if err != nil {
		panic(err)
	}
	return data
}

// Decode agrees with the reference parser on valid batches of recurring
// shapes and on their truncations and bit flips, the first time and
// again through the shape table.
func TestDecodeMatchesReference(t *testing.T) {
	rng := sim.NewRNG(7)
	hits := 0
	for i := 0; i < 4000; i++ {
		data := randomBatch(rng)
		switch rng.Intn(3) {
		case 1:
			data = data[:rng.Intn(len(data)+1)]
		case 2:
			data[rng.Intn(len(data))] ^= byte(1 << rng.Intn(8))
		}
		ws, wrows, werr := refDecode(data)
		for pass := 0; pass < 2; pass++ {
			s, rows, err := Decode(data)
			if d := sameDecode(s, rows, err, ws, wrows, werr); d != "" {
				t.Fatalf("input %d, decode %d: %s", i, pass+1, d)
			}
			if pass == 1 && err == nil && len(s.Fields) > 0 && inShapeTable(s.Fields[0].Name) {
				hits++
			}
		}
	}
	if hits < 1000 {
		t.Fatalf("%d second decodes took the shape table's schema", hits)
	}
}

// tableShapes returns the field count of every entry of the shape table.
func tableShapes() []int {
	var n []int
	for i := range shapes {
		if e := shapes[i].Load(); e != nil {
			n = append(n, len(e.schema.Fields))
		}
	}
	return n
}

// The table holds at most its 16 entries however many shapes pass; it
// admits a shape only from a batch that decoded whole; and a full table
// of shapes never seen again still admits every new one.
func TestShapeTableBoundedAndAdmitsWholeBatchesOnly(t *testing.T) {
	batch := func(name string, rows []colfile.Row) []byte {
		data, err := Encode(colfile.Schema{Fields: []colfile.Field{{Name: name, Type: colfile.Int64}}}, rows)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	one := []colfile.Row{{colfile.IntValue(1)}}
	for i := 0; i < 100; i++ { // a hundred shapes, each seen once
		if _, _, err := Decode(batch(fmt.Sprintf("garbage%d", i), one)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(tableShapes()); n != len(shapes) {
		t.Fatalf("the table holds %d shapes after 100, want %d", n, len(shapes))
	}
	// A new shape whose row is cut short is not admitted.
	cut := batch("late", one)
	if _, _, err := Decode(cut[:len(cut)-1]); err == nil {
		t.Fatal("a truncated batch decoded")
	}
	if lookupShape(cut[4:]) != nil {
		t.Fatal("the shape of a batch that failed to decode was admitted")
	}
	// The same shape, whole, is admitted over the garbage, and the next
	// decode returns the table's schema.
	if _, _, err := Decode(cut); err != nil {
		t.Fatal(err)
	}
	e := lookupShape(cut[4:])
	if e == nil {
		t.Fatal("a full table refused a new shape")
	}
	s, _, err := Decode(cut)
	if err != nil || &s.Fields[0] != &e.schema.Fields[0] {
		t.Fatalf("the second decode built its own schema (%v)", err)
	}
	if n := len(tableShapes()); n != len(shapes) {
		t.Fatalf("the table holds %d shapes, want %d", n, len(shapes))
	}
}

// Decodes on several goroutines, over more shapes than the table holds,
// agree with the reference while they churn the table (run with -race).
func TestConcurrentDecode(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := sim.NewRNG(seed)
			for i := 0; i < 500; i++ {
				data := randomBatch(rng)
				s, rows, err := Decode(data)
				ws, wrows, werr := refDecode(data)
				if d := sameDecode(s, rows, err, ws, wrows, werr); d != "" {
					errs <- d
					return
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	close(errs)
	for d := range errs {
		t.Fatal(d)
	}
}
