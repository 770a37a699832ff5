package lakehouse

import (
	"errors"
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
// armed: a compaction slipped between a transaction's Begin and its
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

// A DELETE or UPDATE whose commit loses to a compaction that removed a
// file it rewrites stops with tableobj.ErrFileGone after one retry,
// withdraws the file it wrote and leaves the table as the compaction
// did. The loops used to take the retry's failure for a conflict and
// retry it forever.
func TestDMLStopsWhenCompactionRemovedItsFile(t *testing.T) {
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
		hook := &onFirstWrite{fn: func() {
			if merged, _, err := compact.CompactPartition(tbl, "province=Beijing", 1<<20); err != nil || merged != 4 {
				t.Errorf("%s: the racing compaction merged %d files: %v", op, merged, err)
			}
		}}
		p.SetFaultHook(hook)
		hook.armed.Store(true)
		done := make(chan error, 1)
		go func() {
			var err error
			filters := []RangeFilter{{Column: "start_time", Lo: iv(0), Hi: iv(0)}}
			if op == "delete" {
				_, _, err = e.Delete("t", filters)
			} else {
				_, _, err = e.Update("t", filters, func(r colfile.Row) colfile.Row { r[3] = colfile.IntValue(9); return r })
			}
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, tableobj.ErrFileGone) || errors.Is(err, tableobj.ErrConflict) {
				t.Fatalf("%s over a compacted file: %v, want ErrFileGone", op, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s over a compacted file is still retrying after 10 s", op)
		}
		cur, _, err := tbl.Current()
		if err != nil || len(cur.Files) != 1 || cur.RowCount != 8 {
			t.Fatalf("%s: after the race %d files, %d rows (%v); want the compaction's 1 file of 8", op, len(cur.Files), cur.RowCount, err)
		}
		// The inputs stay stored until their snapshots expire.
		if paths, _ := fs.List("/lake/t/data/"); len(paths) != 5 {
			t.Fatalf("%s: %d data files stored, want the four inputs and the merged one: the rewrite was not withdrawn", op, len(paths))
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

// An unaccelerated insert of three partitions whose writes start failing
// at any point leaves no data file the current snapshot does not reach.
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
		hook.n.Store(0)
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
