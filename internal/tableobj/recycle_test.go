package tableobj

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"streamlake/internal/colfile"
)

// A staged data file is the FileStore's own copy: the writer that
// encoded it hands its buffer on once the file is stored, and the next
// writer encodes into the same buffer. So staging file B must leave
// file A as it was staged, and stagers running at once must each store
// their own rows: a buffer handed on before its file is stored is
// borrowed by another stager while the file's bytes are still to be
// copied.
func TestStagedFileOutlivesTheReusedBuffer(t *testing.T) {
	e := newEnv(t)
	tbl := createTable(t, e, "t")
	rows := func(tag string, n int) []colfile.Row {
		out := make([]colfile.Row, n)
		for i := range out {
			out[i] = dpiRow(fmt.Sprintf("http://%s/%d", tag, i), int64(i), "bj")
		}
		return out
	}
	stage := func(rows []colfile.Row) DataFile {
		x, err := tbl.Stage()
		if err != nil {
			t.Error(err)
			return DataFile{}
		}
		f, err := x.WriteRows(rows)
		if err != nil {
			t.Error(err)
		}
		return f
	}
	// check reads f back and compares its url column with want's.
	check := func(f DataFile, want []colfile.Row) {
		blob, _, err := e.fs.Read(f.Path)
		if err != nil {
			t.Error(err)
			return
		}
		r, err := colfile.Open(blob)
		if err != nil {
			t.Errorf("%s: %v", f.Path, err)
			return
		}
		cols, err := r.ReadGroup(0, []int{0})
		if err != nil || len(cols[0]) != len(want) {
			t.Errorf("%s: %d rows, %v; want %d", f.Path, len(cols[0]), err, len(want))
			return
		}
		for i, v := range cols[0] {
			if v.Str != want[i][0].Str {
				t.Errorf("%s row %d: %q, staged %q", f.Path, i, v.Str, want[i][0].Str)
				return
			}
		}
	}

	a := stage(rows("a", 40))
	before, _, err := e.fs.Read(a.Path)
	if err != nil {
		t.Fatal(err)
	}
	before = bytes.Clone(before)
	stage(rows("b", 40))
	after, _, err := e.fs.Read(a.Path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatal("staging file B changed the stored bytes of file A")
	}

	const stagers, files = 4, 200
	var wg sync.WaitGroup
	for g := 0; g < stagers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < files; i++ {
				want := rows(fmt.Sprintf("g%d-%d", g, i), 1+i%5)
				check(stage(want), want)
			}
		}()
	}
	wg.Wait()
}
