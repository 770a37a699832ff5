package colfile

import (
	"testing"
)

// FuzzOpen hardens the file parser: arbitrary bytes must never panic,
// and files that parse must decode without panicking. A reader that
// held a valid file and is Reset onto the input agrees with a fresh
// Open of it: the same error, leaving no row group, or the same schema,
// statistics and rows. Where RowDecoder succeeds it returns the rows
// ReadGroup's columns hold; where it fails, it appends none.
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
		for g := 0; g < r.NumRowGroups() && scanErr == nil && len(scanned) < 10_000; g++ {
			var cols [][]Value
			if cols, scanErr = r.ReadGroup(g, nil); scanErr == nil {
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
