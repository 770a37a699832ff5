package lakehouse

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"streamlake/internal/colfile"
	"streamlake/internal/lakebrain/compact"
	"streamlake/internal/plog"
	"streamlake/internal/pool"
	"streamlake/internal/sim"
	"streamlake/internal/tableobj"
)

// The two-writer interleaving explorer. For each ordered pair of writers
// (A, B) and each k up to the number of pool reads and writes A makes
// alone, B runs to completion at A's k-th I/O, and the outcome must be
// one of the two serial orders: both writers succeed, the table's rows
// and the counts a DELETE or UPDATE returns are those of A-then-B or of
// B-then-A on a plain row list, and once the snapshots before the last
// expire no stored data file is one the current snapshot does not reach.
//
// A pool read runs under its log's lock, and B may read the same log (the
// current snapshot's header, to begin with), so B cannot run inside a
// read. It runs at A's first file write at or after the k-th I/O instead,
// or once A returns. Nothing A reads changes under it: a writer fixes its
// base at the catalog pointer read, before any pool I/O, and every file
// it reads after that is immutable. So B landing there is the schedule of
// B landing at the read, as far as A can tell. A file write is six pool
// writes, one per EC(4,2) slice of a new log no other writer can reach
// yet, so B landing at any of them is one schedule too, and runs at the
// first. Likewise a B that flushes (a flush, a DELETE or UPDATE's
// barrier) waits while A holds the table's flush lock, as it would block
// on it. Each distinct schedule runs once.

// exploreRow is a row of the plain model.
type exploreRow struct {
	url   string
	ts    int64
	prov  string
	bytes int64
}

func (r exploreRow) String() string { return fmt.Sprintf("%s/%d/%s/%d", r.url, r.ts, r.prov, r.bytes) }

// exploreWriter is one writer: run drives the lake and returns the count
// a DML reports (0 for the others); model applies it to the plain rows.
// flushes is set for a writer that takes the table's flush lock.
type exploreWriter struct {
	name    string
	flushes bool
	run     func(x *exploreLake) (int64, error)
	model   func(rows []exploreRow) ([]exploreRow, int64)
}

// exploreLake is a table set up for one exploration run.
type exploreLake struct {
	clock *sim.Clock
	p     *pool.Pool
	fs    *tableobj.FileStore
	e     *Engine
	tbl   *tableobj.Table
}

// exploreIO logs the pool I/O of the writer it is armed for and runs
// fire once, at the first write at or after the k-th I/O that B may run
// at (k 0 fires nothing); fire's own I/O is not logged.
type exploreIO struct {
	armed, due bool
	k, writes  int  // writes: pool writes since the last read
	split      bool // a run of writes was no whole number of file writes
	log        []exploreAt
	flushes    bool        // B takes the flush lock
	locked     func() bool // whether A holds it
	fire       func()
}

// exploreAt is one I/O of A: the first pool write of a file write or
// another I/O, with or without the flush lock held.
type exploreAt struct{ first, locked bool }

// runs reports whether B may run at this I/O.
func (at exploreAt) runs(flushes bool) bool { return at.first && !(flushes && at.locked) }

func (h *exploreIO) io(write bool) (time.Duration, error) {
	if !h.armed {
		return 0, nil
	}
	at := exploreAt{write && h.writes%6 == 0, h.locked()}
	if h.writes++; !write {
		h.split = h.split || (h.writes-1)%6 != 0
		h.writes = 0
	}
	if h.log = append(h.log, at); len(h.log) == h.k {
		h.due = true
	}
	if h.due && at.runs(h.flushes) {
		h.armed, h.due = false, false
		h.fire()
	}
	return 0, nil
}

func (h *exploreIO) BeforeWrite(pool.DiskID, int64) (time.Duration, error) { return h.io(true) }
func (h *exploreIO) BeforeRead(pool.DiskID, int64) (time.Duration, error)  { return h.io(false) }

// The delete and update ranges overlap each other, the committed files
// and the row the insert writer adds, so the serial orders differ.
var (
	exploreDelete = []RangeFilter{{Column: "start_time", Lo: iv(0), Hi: iv(10)}}
	exploreUpdate = []RangeFilter{{Column: "start_time", Lo: iv(1), Hi: iv(11)}}
)

func exploreWriters() []exploreWriter {
	same := func(rows []exploreRow) ([]exploreRow, int64) { return rows, 0 }
	within := func(r exploreRow, lo, hi int64) bool { return r.ts >= lo && r.ts <= hi }
	return []exploreWriter{
		{"insert", false, func(x *exploreLake) (int64, error) {
			_, err := x.e.Insert("t", []colfile.Row{row("http://e", 5, "Beijing", 5)})
			return 0, err
		}, func(rows []exploreRow) ([]exploreRow, int64) {
			return append(slices.Clone(rows), exploreRow{"http://e", 5, "Beijing", 5}), 0
		}},
		{"flush", true, func(x *exploreLake) (int64, error) {
			_, err := x.e.Flush("t")
			return 0, err
		}, same},
		{"delete", true, func(x *exploreLake) (int64, error) {
			n, _, err := x.e.Delete("t", exploreDelete)
			return n, err
		}, func(rows []exploreRow) ([]exploreRow, int64) {
			var out []exploreRow
			for _, r := range rows {
				if !within(r, 0, 10) {
					out = append(out, r)
				}
			}
			return out, int64(len(rows) - len(out))
		}},
		{"update", true, func(x *exploreLake) (int64, error) {
			n, _, err := x.e.Update("t", exploreUpdate, func(r colfile.Row) colfile.Row {
				r[3] = colfile.IntValue(r[3].Int + 1000)
				return r
			})
			return n, err
		}, func(rows []exploreRow) ([]exploreRow, int64) {
			out, n := slices.Clone(rows), int64(0)
			for i := range out {
				if within(out[i], 1, 11) {
					out[i].bytes += 1000
					n++
				}
			}
			return out, n
		}},
		{"compact", false, func(x *exploreLake) (int64, error) {
			_, _, err := compact.CompactPartition(x.tbl, "province=Beijing", 1<<20)
			return 0, err
		}, same},
		{"expire", false, func(x *exploreLake) (int64, error) {
			_, err := x.tbl.ExpireSnapshots(x.clock.Now())
			return 0, err
		}, same},
	}
}

// newExploreLake commits four Beijing files of two rows and a Shanghai
// file, deletes one row (so an expiry has a file to reclaim), leaves one
// insert in the write cache, and moves the clock past those snapshots.
func newExploreLake(t *testing.T) (*exploreLake, []exploreRow) {
	t.Helper()
	clock := sim.NewClock()
	p := pool.New("lh", clock, sim.NVMeSSD, 8, 4<<20)
	fs := tableobj.NewFileStore(plog.NewManager(p, 8<<20))
	x := &exploreLake{clock: clock, p: p, fs: fs, e: New(clock, fs, tableobj.NewCatalog(clock), Options{Acceleration: true, FlushEvery: 64})}
	mkTable(t, x.e, "t")
	var rows []exploreRow
	insert := func(rs ...exploreRow) {
		var batch []colfile.Row
		for _, r := range rs {
			batch = append(batch, row(r.url, r.ts, r.prov, r.bytes))
		}
		if _, err := x.e.Insert("t", batch); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, rs...)
	}
	for i := int64(0); i < 4; i++ {
		insert(exploreRow{"http://a", 10 * i, "Beijing", 1}, exploreRow{"http://b", 10*i + 1, "Beijing", 2})
		if _, err := x.e.Flush("t"); err != nil {
			t.Fatal(err)
		}
	}
	insert(exploreRow{"http://c", 2, "Shanghai", 3}, exploreRow{"http://d", 15, "Shanghai", 4})
	if _, _, err := x.e.Delete("t", []RangeFilter{{Column: "start_time", Lo: iv(31), Hi: iv(31)}}); err != nil {
		t.Fatal(err)
	}
	rows = slices.DeleteFunc(rows, func(r exploreRow) bool { return r.ts == 31 })
	insert(exploreRow{"http://f", 3, "Beijing", 6})
	var err error
	if x.tbl, err = x.e.Table("t"); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Hour)
	return x, rows
}

// rows renders the table's rows, cached ones included, sorted.
func (x *exploreLake) rows(t *testing.T) []string {
	t.Helper()
	plan, _, err := x.e.PlanScan("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	if _, _, err := x.e.Scan("t", plan, nil, func(r colfile.Row) bool {
		out = append(out, exploreRow{r[0].Str, r[1].Int, r[2].Str, r[3].Int}.String())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	slices.Sort(out)
	return out
}

func renderRows(rows []exploreRow) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	slices.Sort(out)
	return out
}

// exploreRun runs a with b fired at a's k-th I/O (k 0: a alone) and
// returns the lake, a's I/O log and each writer's count.
func exploreRun(t *testing.T, a, b exploreWriter, k int) (x *exploreLake, rows []exploreRow, log []exploreAt, na, nb int64) {
	t.Helper()
	x, rows = newExploreLake(t)
	st, err := x.e.state("t")
	if err != nil {
		t.Fatal(err)
	}
	var errB error
	hook := &exploreIO{armed: true, k: k, flushes: b.flushes, fire: func() { nb, errB = b.run(x) }, locked: func() bool {
		if !st.flushMu.TryLock() {
			return true
		}
		st.flushMu.Unlock()
		return false
	}}
	x.p.SetFaultHook(hook)
	na, errA := a.run(x)
	if hook.armed && (hook.split || hook.writes%6 != 0) {
		t.Fatalf("%s: a run of pool writes is no whole number of six-slice file writes", a.name)
	}
	hook.armed = false
	if k > len(hook.log) || hook.due {
		nb, errB = b.run(x) // A made no I/O B may run at from its k-th on
	}
	x.p.SetFaultHook(nil)
	if errA != nil || errB != nil {
		t.Fatalf("%s with %s at I/O %d: %v, %v; want both to succeed", a.name, b.name, k, errA, errB)
	}
	return x, rows, hook.log, na, nb
}

func TestTwoWriterInterleavings(t *testing.T) {
	writers := exploreWriters()
	runs := 0
	for _, a := range writers {
		_, _, log, _, _ := exploreRun(t, a, a, 0)
		ios := len(log)
		for _, b := range writers {
			// Every k from 1 to past A's last I/O, each run once per I/O
			// at which B lands.
			for k, done := 1, map[int]bool{}; k <= ios+1; k++ {
				at := k
				for at <= ios && !log[at-1].runs(b.flushes) {
					at++
				}
				if done[at] {
					continue
				}
				done[at] = true
				x, rows, _, na, nb := exploreRun(t, a, b, at)
				runs++
				ab, na1 := a.model(rows)
				ab, nb1 := b.model(ab)
				ba, nb2 := b.model(rows)
				ba, na2 := a.model(ba)
				got := x.rows(t)
				if !(slices.Equal(got, renderRows(ab)) && na == na1 && nb == nb1) &&
					!(slices.Equal(got, renderRows(ba)) && na == na2 && nb == nb2) {
					t.Fatalf("%s with %s at I/O %d of %d: rows %v, counts %d and %d;\nA-then-B: %v, %d and %d\nB-then-A: %v, %d and %d",
						a.name, b.name, k, ios, got, na, nb, renderRows(ab), na1, nb1, renderRows(ba), na2, nb2)
				}
				// Commit the write cache, then expire every snapshot but the
				// last: the stored data files are those it reaches.
				if _, err := x.e.Flush("t"); err != nil {
					t.Fatal(err)
				}
				x.clock.Advance(time.Hour)
				if _, err := x.tbl.ExpireSnapshots(x.clock.Now()); err != nil {
					t.Fatal(err)
				}
				cur, _, err := x.tbl.Current()
				if err != nil {
					t.Fatal(err)
				}
				var reach []string
				for _, f := range cur.Files {
					reach = append(reach, f.Path)
				}
				slices.Sort(reach)
				if stored, _ := x.fs.List("/lake/t/data/"); !slices.Equal(stored, reach) {
					t.Fatalf("%s with %s at I/O %d: %d data files stored, the snapshot reaches %d", a.name, b.name, k, len(stored), len(reach))
				}
			}
		}
	}
	t.Logf("%d distinct interleavings of %d writers", runs, len(writers))
}
