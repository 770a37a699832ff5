package colfile

import (
	"reflect"
	"testing"
)

// intFile writes n rows of the two-integer schema named by specs, in
// groups of four.
func intFile(t testing.TB, n int, specs ...string) []byte {
	t.Helper()
	w := NewWriter(MustSchema(specs...), 4)
	for i := 0; i < n; i++ {
		if err := w.Append(Row{IntValue(int64(i)), IntValue(int64(-i))}); err != nil {
			t.Fatal(err)
		}
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// One Reader Reset across files reads each as a fresh Open does. Its
// schema is the last file's, and a schema it handed out earlier never
// changes, though the next file's field names or types differ from it
// in one place only. A failed Reset leaves it empty. Reset onto a file
// no larger than one it held allocates nothing: the schema, groups,
// chunks and stats reuse what it has.
func TestResetReadsEachFileAsOpen(t *testing.T) {
	files := [][]byte{
		intFile(t, 10, "a:int64", "b:int64"),
		intFile(t, 7, "a:int64", "b:int64"),
		intFile(t, 9, "a:int64", "c:int64"),
		buildFile(t, 20, 8),
		intFile(t, 3, "a:int64", "b:int64"),
	}
	var r Reader
	var handed []Schema
	for i, data := range files {
		if err := r.Reset(data); err != nil {
			t.Fatalf("file %d: %v", i, err)
		}
		want, err := Open(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r.Schema(), want.Schema()) || !reflect.DeepEqual(r.groups, want.groups) {
			t.Fatalf("file %d: Reset read %v in %d groups, Open %v in %d", i, r.Schema(), r.NumRowGroups(), want.Schema(), want.NumRowGroups())
		}
		if !reflect.DeepEqual(scanAll(t, &r), scanAll(t, want)) {
			t.Fatalf("file %d: Reset decodes other rows than Open", i)
		}
		handed = append(handed, r.Schema())
	}
	for i, s := range handed {
		if want, _ := Open(files[i]); !s.Equal(want.Schema()) {
			t.Fatalf("the schema handed out for file %d became %v", i, s)
		}
	}
	if err := r.Reset(files[0][:len(files[0])-1]); err == nil || r.NumRowGroups() != 0 || r.Schema().NumFields() != 0 {
		t.Fatalf("a failed Reset: err %v, %d groups of %d fields left", err, r.NumRowGroups(), r.Schema().NumFields())
	}
	if err := r.Reset(files[0]); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() {
		if err := r.Reset(files[1]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Reset onto a smaller file of the same schema allocates %.0f times", n)
	}
}
