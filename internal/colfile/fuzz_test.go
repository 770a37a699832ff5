package colfile

import (
	"testing"
)

// FuzzOpen hardens the file parser: arbitrary bytes must never panic,
// and files that parse must scan without panicking. Where both succeed,
// RowDecoder returns the rows Scan does; where it fails, it appends none.
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
		if err != nil {
			return
		}
		var scanned []Row
		scanErr := r.Scan(func(row Row) bool {
			scanned = append(scanned, append(Row(nil), row...))
			return len(scanned) < 10_000
		})
		for g := 0; g < r.NumRowGroups() && g < 100; g++ {
			for c := 0; c < r.Schema().NumFields(); c++ {
				r.GroupStats(g, c)
			}
		}
		if r.Schema().NumFields() == 0 {
			return // no chunk checks the footer's row counts
		}
		var dec RowDecoder
		rows, err := dec.AppendRows(nil, r)
		if err != nil {
			if len(rows) != 0 {
				t.Fatalf("a failed decode appended %d rows", len(rows))
			}
			return
		}
		if int64(len(rows)) != r.NumRows() {
			t.Fatalf("decoded %d rows, footer counts %d", len(rows), r.NumRows())
		}
		for i := 0; scanErr == nil && i < len(scanned); i++ {
			for c := range scanned[i] {
				if !sameValue(rows[i][c], scanned[i][c]) {
					t.Fatalf("row %d column %d: decoder %v, Scan %v", i, c, rows[i][c], scanned[i][c])
				}
			}
		}
	})
}
