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

// A commit's metadata files are encoded into one buffer that the next
// commit reuses once FileStore.Write has stored its copies, and a
// checkpoint is folded from a copy of the commit file, not the buffer.
// So commits running at once, checkpoints among them, must each store
// the files they encoded: every commit file decodes to the file its
// commit added, and the last snapshot folds to every file.
func TestCommitFilesOutliveTheReusedBuffer(t *testing.T) {
	e := newEnv(t)
	tbl := createTable(t, e, "t")
	const committers, commits = 4, 60
	var mu sync.Mutex
	added := map[int64]DataFile{} // commit id → the file it added
	var wg sync.WaitGroup
	for g := 0; g < committers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < commits; i++ {
				f := syntheticFile(1000*g + i)
				s, _, err := tbl.Write(nil, func(x *Txn) error { x.AddFile(f); return nil })
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				added[s.ID] = f
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	s, _, err := tbl.Current()
	if err != nil || len(s.Files) != committers*commits {
		t.Fatalf("the last snapshot holds %d files (%v), want %d", len(s.Files), err, committers*commits)
	}
	for id, want := range added {
		blob, _, err := e.fs.Read(CommitPath("/lake/t", id))
		if err != nil {
			t.Fatal(err)
		}
		c, err := DecodeCommit(blob)
		if err != nil || c.ID != id || len(c.Ops) != 1 || c.Ops[0].File.Path != want.Path || !sameStats(c.Ops[0].File, want) {
			t.Fatalf("commit file %d: %+v (%v), its commit added %+v", id, c, err, want)
		}
	}
}
