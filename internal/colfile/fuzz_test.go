package colfile

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// FuzzOpen hardens the file parser: arbitrary bytes must never panic,
// and files that parse must decode without panicking. A reader that
// held a valid file and is Reset onto the input agrees with a fresh
// Open of it: the same error, leaving no row group, or the same schema,
// statistics and rows. Where RowDecoder succeeds it returns the rows
// ReadGroup's columns hold; where it fails, it appends none. Each group's
// typed columns, read into the last group's, hold value for value what
// ReadGroup and the reference Value decoders return, and fail where they
// fail; and a file's typed columns fed to AppendColumns write the bytes
// its rows fed to AppendRows write.
func FuzzOpen(f *testing.F) {
	schema := MustSchema("a:int64", "b:string", "c:float64", "d:bool")
	w := NewWriter(schema, 4)
	for i := 0; i < 10; i++ {
		w.Append(Row{IntValue(int64(i)), StringValue("x"), FloatValue(1.5), BoolValue(i%2 == 0)})
	}
	valid, _ := w.Finish()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("SLCF"))
	f.Add(valid[:len(valid)/2])
	// Files of random schemas and group sizes, so every type, both string
	// encodings and ragged bitmaps reach the decoders as seeds: a mutated
	// chunk rarely inflates.
	rng := rand.New(rand.NewSource(57))
	for i := 0; i < 8; i++ {
		schema, rows := randomTable(rng, rng.Intn(600))
		w := NewWriter(schema, 1+rng.Intn(200))
		if err := w.AppendRows(rows); err != nil {
			f.Fatal(err)
		}
		data, err := w.Finish()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.Clone(data))
		w.Recycle()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Open(data)
		reused, verr := Open(valid)
		if verr != nil {
			t.Fatal(verr)
		}
		rerr := reused.Reset(data)
		if (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error() {
			t.Fatalf("Open: %v; Reset after a valid file: %v", err, rerr)
		}
		if err != nil {
			if reused.NumRowGroups() != 0 || reused.Schema().NumFields() != 0 {
				t.Fatalf("a failed Reset left %d row groups of %d fields", reused.NumRowGroups(), reused.Schema().NumFields())
			}
			return
		}
		if !reused.Schema().Equal(r.Schema()) || reused.NumRowGroups() != r.NumRowGroups() {
			t.Fatalf("Reset: %v in %d groups; Open: %v in %d", reused.Schema(), reused.NumRowGroups(), r.Schema(), r.NumRowGroups())
		}
		for g := 0; g < r.NumRowGroups(); g++ {
			if reused.GroupRows(g) != r.GroupRows(g) || reused.GroupBytes(g) != r.GroupBytes(g) {
				t.Fatalf("group %d: Reset %d rows in %d B, Open %d in %d B", g, reused.GroupRows(g), reused.GroupBytes(g), r.GroupRows(g), r.GroupBytes(g))
			}
			for c := 0; c < r.Schema().NumFields(); c++ {
				if a, b := reused.GroupStats(g, c), r.GroupStats(g, c); !sameValue(a.Min, b.Min) || !sameValue(a.Max, b.Max) || a.Count != b.Count {
					t.Fatalf("group %d column %d: Reset %+v, Open %+v", g, c, a, b)
				}
			}
		}
		var scanned []Row
		var scanErr error
		var typed []Column
		g := 0
		for ; g < r.NumRowGroups() && scanErr == nil && len(scanned) < 10_000; g++ {
			var cols [][]Value
			cols, scanErr = r.ReadGroup(g, nil)
			ref, refErr := refReadGroup(r, g)
			var typErr error
			typed, typErr = r.ReadColumns(g, nil, typed)
			if (scanErr == nil) != (refErr == nil) || (typErr == nil) != (refErr == nil) {
				t.Fatalf("group %d: ReadGroup %v, ReadColumns %v, the reference %v", g, scanErr, typErr, refErr)
			}
			for c := range ref {
				if typed[c].Len() != len(ref[c]) || len(cols[c]) != len(ref[c]) {
					t.Fatalf("group %d column %d: %d typed values, ReadGroup %d, the reference %d", g, c, typed[c].Len(), len(cols[c]), len(ref[c]))
				}
				for i, v := range ref[c] {
					if !sameValue(typed[c].Value(i), v) || !sameValue(cols[c][i], v) {
						t.Fatalf("group %d column %d row %d: typed %v, ReadGroup %v, the reference %v", g, c, i, typed[c].Value(i), cols[c][i], v)
					}
				}
			}
			if scanErr == nil {
				for i := 0; i < r.GroupRows(g); i++ {
					row := make(Row, len(cols))
					for c := range cols {
						row[c] = cols[c][i]
					}
					scanned = append(scanned, row)
				}
			}
		}
		if r.Schema().NumFields() == 0 {
			return // no chunk checks the footer's row counts
		}
		if scanErr == nil && g == r.NumRowGroups() {
			sameWrites(t, r, scanned)
		}
		var dec, rdec RowDecoder
		rows, err := dec.AppendRows(nil, r)
		again, rerr := rdec.AppendRows(nil, reused)
		if (err == nil) != (rerr == nil) || len(again) != len(rows) {
			t.Fatalf("Open's rows: %d, %v; Reset's: %d, %v", len(rows), err, len(again), rerr)
		}
		if err != nil {
			if len(rows) != 0 {
				t.Fatalf("a failed decode appended %d rows", len(rows))
			}
			return
		}
		if int64(len(rows)) != r.NumRows() {
			t.Fatalf("decoded %d rows, footer counts %d", len(rows), r.NumRows())
		}
		for i := range rows {
			for c := range rows[i] {
				if !sameValue(rows[i][c], again[i][c]) {
					t.Fatalf("row %d column %d: Open %v, Reset %v", i, c, rows[i][c], again[i][c])
				}
				if scanErr == nil && i < len(scanned) && !sameValue(rows[i][c], scanned[i][c]) {
					t.Fatalf("row %d column %d: decoder %v, ReadGroup %v", i, c, rows[i][c], scanned[i][c])
				}
			}
		}
	})
}

// sameWrites checks that r's typed columns, group by group through
// AppendColumns, write the file its rows (all of them, in order) write
// through AppendRows.
func sameWrites(t *testing.T, r *Reader, rows []Row) {
	byCols, byRows := NewWriter(r.Schema(), 0), NewWriter(r.Schema(), 0)
	var cols []Column
	for g := 0; g < r.NumRowGroups(); g++ {
		var err error
		if cols, err = r.ReadColumns(g, nil, cols); err != nil {
			t.Fatalf("group %d decoded once, then %v", g, err)
		}
		n := r.GroupRows(g)
		if err, rerr := byCols.AppendColumns(cols), byRows.AppendRows(rows[:n]); err != nil || rerr != nil {
			t.Fatalf("group %d: AppendColumns %v, AppendRows %v", g, err, rerr)
		}
		rows = rows[n:]
	}
	a, err := byCols.Finish()
	if err != nil {
		t.Fatal(err)
	}
	a = bytes.Clone(a)
	byCols.Recycle()
	b, err := byRows.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("AppendColumns wrote %d bytes, AppendRows %d, not the same", len(a), len(b))
	}
	byRows.Recycle()
}

// FuzzDecodeChunk feeds uncompressed chunk bytes straight to the typed
// decode*Chunk functions, past the inflate step that stops FuzzOpen's
// mutations: each accepts exactly the chunks its reference Value decoder
// accepts, appends the same values after what the column held, and
// leaves them unchanged across colEncoder and a second decode.
func FuzzDecodeChunk(f *testing.F) {
	// Every type's chunks, both string encodings among them, as the
	// reference encoders write them for random columns.
	rng := rand.New(rand.NewSource(58))
	for i := 0; i < 12; i++ {
		schema, rows := randomTable(rng, 1+rng.Intn(400))
		for c, fl := range schema.Fields {
			raw, err := appendChunk(nil, fl.Type, rows, c)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(byte(fl.Type), uint16(len(rows)), raw)
		}
	}
	f.Add(byte(String), uint16(3), []byte{encDict, 1, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, typ byte, n uint16, data []byte) {
		ty := Type(typ % 4)
		prefix := MakeColumn(ty, 0)
		decode := func(data []byte) (Column, error) {
			col := prefix
			var err error
			switch ty {
			case Int64:
				col.Ints, err = decodeInt64Chunk(append(col.Ints, -1), data, int(n))
			case Float64:
				col.Floats, err = decodeFloat64Chunk(append(col.Floats, -1), data, int(n))
			case String:
				col.Strs, err = decodeStringChunk(append(col.Strs, "held"), data, int(n))
			case Bool:
				col.Bools, err = decodeBoolChunk(append(col.Bools, true), data, int(n))
			}
			return col, err
		}
		var ref []Value
		var rerr error
		switch ty {
		case Int64:
			ref, rerr = refDecodeInt64Chunk(nil, data, int(n))
		case Float64:
			ref, rerr = refDecodeFloat64Chunk(nil, data, int(n))
		case String:
			ref, rerr = refDecodeStringChunk(nil, data, int(n))
		case Bool:
			ref, rerr = refDecodeBoolChunk(nil, data, int(n))
		}
		col, err := decode(data)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("%v chunk of %d: typed %v, the reference %v", ty, n, err, rerr)
		}
		if err != nil {
			return
		}
		held := map[Type]Value{Int64: IntValue(-1), Float64: FloatValue(-1), String: StringValue("held"), Bool: BoolValue(true)}[ty]
		if col.Len() != 1+len(ref) || !sameValue(col.Value(0), held) {
			t.Fatalf("%v chunk of %d: %d values after %v, the reference %d", ty, n, col.Len()-1, col.Value(0), len(ref))
		}
		var e colEncoder
		e.reset(ty)
		for i, v := range ref {
			if !sameValue(col.Value(1+i), v) {
				t.Fatalf("%v chunk value %d: typed %v, the reference %v", ty, i, col.Value(1+i), v)
			}
			e.add(v)
		}
		head, body := e.chunk()
		again, err := decode(append(slices.Clip(head), body...))
		if err != nil {
			t.Fatalf("%v chunk of %d re-encoded: %v", ty, n, err)
		}
		for i, v := range ref {
			if !sameValue(again.Value(1+i), v) {
				t.Fatalf("%v chunk value %d re-encoded: %v, want %v", ty, i, again.Value(1+i), v)
			}
		}
	})
}
