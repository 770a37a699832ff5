package tableobj

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"streamlake/internal/colfile"
	"streamlake/internal/sim"
)

// randomValue draws a value of type t; a partition column's come from a
// few, so partitions repeat, and a float one's include -0 and 0, which
// are two partitions.
func randomValue(rng *sim.RNG, t colfile.Type, partition bool) colfile.Value {
	k := rng.Intn(1000)
	if partition {
		k = rng.Intn(3)
	}
	switch t {
	case colfile.Int64:
		return colfile.IntValue(int64(k) - 1)
	case colfile.Float64:
		return colfile.FloatValue([]float64{math.Copysign(0, -1), 0, 1.5}[k%3] * float64(1+k/3))
	case colfile.String:
		return colfile.StringValue(fmt.Sprintf("v%d", k))
	default:
		return colfile.BoolValue(k%2 == 0)
	}
}

// writeRowsRef stages rows, all of one partition, as WriteRows did before
// it wrote through a sink: one writer over the whole batch.
func writeRowsRef(t *testing.T, x *Txn, rows []colfile.Row) DataFile {
	w := colfile.NewWriter(x.t.meta.Schema, 0)
	if err := w.AppendRows(rows); err != nil {
		t.Fatal(err)
	}
	f, err := x.stage(w, x.t.PartitionFor(rows[0]), int64(len(rows)), nil)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// A sink's files, over random schemas partitioned by a string, int, bool
// or float column, equal what WriteRows wrote for each partition's rows
// (writeRowsRef), partition by partition in sorted order: the same paths
// and bytes, and the same Min and Max.
func TestRowSinkMatchesWriteRows(t *testing.T) {
	rng := sim.NewRNG(11)
	for trial := 0; trial < 24; trial++ {
		types := []string{"int64", "float64", "string", "bool"}
		specs := make([]string, 2+rng.Intn(4))
		for c := range specs {
			specs[c] = fmt.Sprintf("c%d:%s", c, types[rng.Intn(4)])
		}
		pc := rng.Intn(len(specs)) // partitioned by each type
		specs[pc] = fmt.Sprintf("c%d:%s", pc, types[trial/2%4])
		schema := colfile.MustSchema(specs...)
		part := schema.Fields[pc]
		meta := TableMeta{Name: "t", Path: "/lake/t", Schema: schema, PartitionColumn: part.Name}
		rows := make([]colfile.Row, 1+rng.Intn([]int{50, 3000, 20000}[trial%3]))
		for i := range rows {
			for c, f := range schema.Fields {
				rows[i] = append(rows[i], randomValue(rng, f.Type, c == schema.FieldIndex(part.Name)))
			}
		}
		write := func(fn func(*Txn, *Table) []DataFile) (*env, []DataFile) {
			e := newEnv(t)
			tbl, _, err := Create(e.clock, e.fs, e.cat, meta)
			if err != nil {
				t.Fatal(err)
			}
			x, err := tbl.Begin()
			if err != nil {
				t.Fatal(err)
			}
			return e, fn(x, tbl)
		}
		ge, got := write(func(x *Txn, tbl *Table) []DataFile {
			sink := tbl.Sink()
			for _, r := range rows {
				if err := sink.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			files, err := sink.Stage(x, nil)
			if err != nil {
				t.Fatal(err)
			}
			return files
		})
		we, want := write(func(x *Txn, tbl *Table) []DataFile {
			byName := map[string][]colfile.Row{}
			for _, r := range rows {
				byName[tbl.PartitionFor(r)] = append(byName[tbl.PartitionFor(r)], r)
			}
			var names []string
			for p := range byName {
				names = append(names, p)
			}
			sort.Strings(names)
			var files []DataFile
			for _, p := range names {
				files = append(files, writeRowsRef(t, x, byName[p]))
			}
			return files
		})
		what := fmt.Sprintf("trial %d (%v by %s, %d rows)", trial, schema, part.Name, len(rows))
		if len(got) != len(want) {
			t.Fatalf("%s: the sink wrote %d files, the reference %d", what, len(got), len(want))
		}
		for i := range want {
			gb, _, gerr := ge.fs.Read(got[i].Path)
			wb, _, werr := we.fs.Read(want[i].Path)
			if gerr != nil || werr != nil || !bytes.Equal(gb, wb) {
				t.Fatalf("%s: file %d (%s) differs from the reference's (%s): %v %v", what, i, got[i].Path, want[i].Path, gerr, werr)
			}
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s: file %d metadata\n%+v\nthe reference's\n%+v", what, i, got[i], want[i])
			}
		}
	}
}
