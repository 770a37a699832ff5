package lakehouse

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamlake/internal/colfile"
	"streamlake/internal/lakebrain/compact"
	"streamlake/internal/plog"
	"streamlake/internal/pool"
	"streamlake/internal/sim"
	"streamlake/internal/tableobj"
)

// onFirstWrite runs fn, once, before the first disk write after it is
// armed: another writer slipped between a transaction's Begin and its
// Commit. The write a DELETE or UPDATE reaches first is the rewrite of
// a file it read, whose log no other writer touches.
type onFirstWrite struct {
	armed atomic.Bool
	fn    func()
}

func (h *onFirstWrite) BeforeWrite(pool.DiskID, int64) (time.Duration, error) {
	if h.armed.CompareAndSwap(true, false) {
		h.fn()
	}
	return 0, nil
}

func (h *onFirstWrite) BeforeRead(pool.DiskID, int64) (time.Duration, error) { return 0, nil }

// A DELETE or UPDATE whose commit loses to a compaction that removed the
// file it rewrites plans again on the compaction's snapshot and
// succeeds: it rewrites the merged file, reports the one row of the
// attempt that committed, and withdraws the first attempt's rewrite.
// Before, the statement failed with tableobj.ErrFileGone, and before
// that it retried forever.
func TestDMLRacingCompactionSucceeds(t *testing.T) {
	for _, op := range []string{"delete", "update"} {
		clock := sim.NewClock()
		p := pool.New("lh", clock, sim.NVMeSSD, 8, 4<<20)
		fs := tableobj.NewFileStore(plog.NewManager(p, 8<<20))
		e := New(clock, fs, tableobj.NewCatalog(clock), Options{Acceleration: true, FlushEvery: 8})
		mkTable(t, e, "t")
		for i := int64(0); i < 4; i++ {
			if _, err := e.Insert("t", []colfile.Row{row("http://a", 10*i, "Beijing", 1), row("http://b", 10*i+1, "Beijing", 2)}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Flush("t"); err != nil {
			t.Fatal(err)
		}
		tbl, err := e.Table("t")
		if err != nil {
			t.Fatal(err)
		}
		inputs, _ := fs.List("/lake/t/data/")
		var merged string
		hook := &onFirstWrite{fn: func() {
			if n, _, err := compact.CompactPartition(tbl, "province=Beijing", 1<<20); err != nil || n != 4 {
				t.Errorf("%s: the racing compaction merged %d files: %v", op, n, err)
			}
			if cur, _, err := tbl.Current(); err == nil && len(cur.Files) == 1 {
				merged = cur.Files[0].Path
			}
		}}
		p.SetFaultHook(hook)
		hook.armed.Store(true)
		filters := []RangeFilter{{Column: "start_time", Lo: iv(0), Hi: iv(0)}}
		var n int64
		if op == "delete" {
			n, _, err = e.Delete("t", filters)
		} else {
			n, _, err = e.Update("t", filters, func(r colfile.Row) colfile.Row { r[3] = colfile.IntValue(9); return r })
		}
		if err != nil || n != 1 {
			t.Fatalf("%s over a compacted file: %d rows, %v; want 1 row", op, n, err)
		}
		want := map[string]int64{"delete": 7, "update": 8}[op]
		cur, _, err := tbl.Current()
		if err != nil || len(cur.Files) != 1 || cur.RowCount != want || cur.Files[0].Path == merged || merged == "" {
			t.Fatalf("%s: after the race %d files, %d rows (%v); want the compaction's file rewritten, %d rows", op, len(cur.Files), cur.RowCount, err, want)
		}
		// The inputs and the merged file stay stored until their snapshots
		// expire; of the statement's two rewrites, only the committed one is.
		stored, _ := fs.List("/lake/t/data/")
		if len(stored) != len(inputs)+2 || !slices.Contains(stored, merged) || !slices.Contains(stored, cur.Files[0].Path) {
			t.Fatalf("%s: %d data files stored, want the %d inputs, the merged file and one rewrite: %v", op, len(stored), len(inputs), stored)
		}
	}
}

// failFrom fails every pool write from the nth one while n > 0.
type failFrom struct{ n, seen atomic.Int64 }

func (h *failFrom) BeforeWrite(pool.DiskID, int64) (time.Duration, error) {
	if n := h.n.Load(); n > 0 && h.seen.Add(1) >= n {
		return 0, errors.New("injected write fault")
	}
	return 0, nil
}

func (h *failFrom) BeforeRead(pool.DiskID, int64) (time.Duration, error) { return 0, nil }

// An insert of three partitions and its flush, whose writes start
// failing at any point, leave no data file that the snapshot does not
// reach once a flush succeeds.
func TestFailedInsertLeavesNoDataFiles(t *testing.T) {
	rows := []colfile.Row{row("a", 1, "Beijing", 1), row("b", 2, "Shanghai", 2), row("c", 3, "Guangdong", 3)}
	for n := int64(1); ; n++ {
		clock := sim.NewClock()
		p := pool.New("lh", clock, sim.NVMeSSD, 8, 4<<20)
		fs := tableobj.NewFileStore(plog.NewManager(p, 8<<20))
		e := New(clock, fs, tableobj.NewCatalog(clock), Options{})
		mkTable(t, e, "t")
		hook := &failFrom{}
		hook.n.Store(n)
		p.SetFaultHook(hook)
		_, err := e.Insert("t", rows)
		if err == nil {
			_, err = e.Flush("t")
		}
		hook.n.Store(0)
		if _, ferr := e.Flush("t"); ferr != nil {
			t.Fatalf("writes failing from the %dth: the flush after them: %v", n, ferr)
		}
		tbl, terr := e.Table("t")
		if terr != nil {
			t.Fatal(terr)
		}
		cur, _, terr := tbl.Current()
		if terr != nil {
			t.Fatal(terr)
		}
		if stored, _ := fs.List("/lake/t/data/"); len(stored) != len(cur.Files) {
			t.Fatalf("writes failing from the %dth: %d data files stored, the snapshot reaches %d", n, len(stored), len(cur.Files))
		}
		if err == nil {
			return
		}
	}
}

// A compaction whose commit loses to an insert is re-based on the
// insert's snapshot and commits: the table holds the merged file and the
// insert's, with both writers' rows. Before, the compaction aborted on
// the lost race.
func TestCompactionRacingInsertSucceeds(t *testing.T) {
	clock := sim.NewClock()
	p := pool.New("lh", clock, sim.NVMeSSD, 8, 4<<20)
	fs := tableobj.NewFileStore(plog.NewManager(p, 8<<20))
	e := New(clock, fs, tableobj.NewCatalog(clock), Options{})
	mkTable(t, e, "t")
	for i := int64(0); i < 4; i++ {
		if _, err := e.Insert("t", []colfile.Row{row("http://a", 10*i, "Beijing", 1), row("http://b", 10*i+1, "Beijing", 2)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Flush("t"); err != nil {
		t.Fatal(err)
	}
	tbl, err := e.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	hook := &onFirstWrite{fn: func() {
		if _, err := e.Insert("t", []colfile.Row{row("http://c", 99, "Beijing", 3)}); err != nil {
			t.Errorf("the racing insert: %v", err)
		}
		if _, err := e.Flush("t"); err != nil {
			t.Errorf("the racing insert's flush: %v", err)
		}
	}}
	p.SetFaultHook(hook)
	hook.armed.Store(true)
	merged, _, err := compact.CompactPartition(tbl, "province=Beijing", 1<<20)
	if err != nil || merged != 4 {
		t.Fatalf("compaction racing an insert: merged %d files, %v", merged, err)
	}
	cur, _, err := tbl.Current()
	if err != nil || len(cur.Files) != 2 || cur.RowCount != 9 {
		t.Fatalf("after the race: %d files, %d rows (%v); want the merged file of 8 and the insert's of 1", len(cur.Files), cur.RowCount, err)
	}
	var keys []int64
	if _, _, err := e.Scan("t", Plan{Files: cur.Files}, nil, func(r colfile.Row) bool {
		keys = append(keys, r[1].Int)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	slices.Sort(keys)
	if want := []int64{0, 1, 10, 11, 20, 21, 30, 31, 99}; !slices.Equal(keys, want) {
		t.Fatalf("rows after the race: %v, want %v", keys, want)
	}
}

// A MetaFresher flush whose metadata write fails leaves the write
// cache's data files stored, since they are the inserts', not the
// flush's, and puts them back in the cache: the next flush commits every
// row.
func TestFailedFlushKeepsCachedFiles(t *testing.T) {
	clock := sim.NewClock()
	p := pool.New("lh", clock, sim.NVMeSSD, 8, 4<<20)
	fs := tableobj.NewFileStore(plog.NewManager(p, 8<<20))
	e := New(clock, fs, tableobj.NewCatalog(clock), Options{Acceleration: true, FlushEvery: 64})
	mkTable(t, e, "t")
	for i := int64(0); i < 3; i++ {
		if _, err := e.Insert("t", []colfile.Row{row("http://a", i, "Beijing", 1), row("http://b", i, "Shanghai", 2)}); err != nil {
			t.Fatal(err)
		}
	}
	cached, _ := fs.List("/lake/t/data/")
	hook := &failFrom{}
	hook.n.Store(1)
	p.SetFaultHook(hook)
	if _, err := e.Flush("t"); err == nil {
		t.Fatal("a flush whose every write fails succeeded")
	}
	hook.n.Store(0)
	if stored, _ := fs.List("/lake/t/data/"); !slices.Equal(stored, cached) {
		t.Fatalf("after the failed flush %d data files stored, want the %d cached", len(stored), len(cached))
	}
	if _, err := e.Flush("t"); err != nil {
		t.Fatal(err)
	}
	tbl, err := e.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if cur, _, err := tbl.Current(); err != nil || len(cur.Files) != len(cached) || cur.RowCount != 6 {
		t.Fatalf("after the next flush: %d files, %d rows (%v); want %d files of 6 rows", len(cur.Files), cur.RowCount, err, len(cached))
	}
}

// Inserts that flush every other batch, DELETEs of the rows inserted
// before them, and compactions, from goroutines of their own, leave
// every concurrently inserted row exactly once and none of the deleted
// ones. Run it with -race -count=10.
func TestConcurrentWritersKeepEveryRowOnce(t *testing.T) {
	clock := sim.NewClock()
	p := pool.New("lh", clock, sim.NVMeSSD, 8, 4<<20)
	fs := tableobj.NewFileStore(plog.NewManager(p, 8<<20))
	e := New(clock, fs, tableobj.NewCatalog(clock), Options{Acceleration: true, FlushEvery: 2})
	mkTable(t, e, "t")
	for i := int64(1); i <= 8; i++ {
		if _, err := e.Insert("t", []colfile.Row{row("old", -i, "Beijing", 0)}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := e.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := int64(0); g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 10; i++ {
				if _, err := e.Insert("t", []colfile.Row{row("new", 100*g+i, []string{"Beijing", "Shanghai"}[i%2], 0)}); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := int64(1); i <= 8; i++ {
			if _, _, err := e.Delete("t", []RangeFilter{{Column: "start_time", Lo: iv(-i), Hi: iv(-i)}}); err != nil {
				errs <- err
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if _, _, err := compact.CompactPartition(tbl, "province=Beijing", 1<<20); err != nil {
				errs <- err
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	plan, _, err := e.PlanScan("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	var keys []int64
	if _, _, err := e.Scan("t", plan, nil, func(r colfile.Row) bool {
		keys = append(keys, r[1].Int)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	slices.Sort(keys)
	var want []int64
	for g := int64(0); g < 3; g++ {
		for i := int64(0); i < 10; i++ {
			want = append(want, 100*g+i)
		}
	}
	if !slices.Equal(keys, want) {
		t.Fatalf("rows after the concurrent writers: %v, want %v", keys, want)
	}
}
