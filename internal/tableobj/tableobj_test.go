package tableobj

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"streamlake/internal/colfile"
	"streamlake/internal/plog"
	"streamlake/internal/pool"
	"streamlake/internal/sim"
)

type env struct {
	clock *sim.Clock
	fs    *FileStore
	cat   *Catalog
}

func newEnv(t testing.TB) *env {
	t.Helper()
	clock := sim.NewClock()
	p := pool.New("tbl", clock, sim.NVMeSSD, 8, 4<<20)
	return &env{
		clock: clock,
		fs:    NewFileStore(plog.NewManager(p, 8<<20)),
		cat:   NewCatalog(clock),
	}
}

var dpiSchema = colfile.MustSchema("url:string", "start_time:int64", "province:string")

func dpiRow(url string, ts int64, prov string) colfile.Row {
	return colfile.Row{colfile.StringValue(url), colfile.IntValue(ts), colfile.StringValue(prov)}
}

func createTable(t testing.TB, e *env, name string) *Table {
	t.Helper()
	tbl, _, err := Create(e.clock, e.fs, e.cat, TableMeta{
		Name: name, Path: "/lake/" + name, Schema: dpiSchema, PartitionColumn: "province",
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestFileStoreBasics(t *testing.T) {
	e := newEnv(t)
	cost, err := e.fs.Write("a/b/one", []byte("hello"))
	if err != nil || cost <= 0 {
		t.Fatalf("write: %v", err)
	}
	data, _, err := e.fs.Read("a/b/one")
	if err != nil || string(data) != "hello" {
		t.Fatalf("read: %q %v", data, err)
	}
	// Overwrite replaces content and keeps one PLog.
	e.fs.Write("a/b/one", []byte("world"))
	data, _, _ = e.fs.Read("a/b/one")
	if string(data) != "world" {
		t.Fatalf("overwrite: %q", data)
	}
	e.fs.Write("a/c/two", []byte("xx"))
	paths, listCost := e.fs.List("a/b/")
	if len(paths) != 1 || paths[0] != "a/b/one" || listCost <= 0 {
		t.Fatalf("list: %v", paths)
	}
	if storedBytes(e.fs) != 7 || e.fs.Count() != 2 {
		t.Fatalf("totals: %d bytes %d files", storedBytes(e.fs), e.fs.Count())
	}
	if err := e.fs.Delete("a/b/one"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.fs.Read("a/b/one"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read deleted: %v", err)
	}
	if err := e.fs.Delete("a/b/one"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestFileStoreListCostLinear(t *testing.T) {
	e := newEnv(t)
	for i := 0; i < 100; i++ {
		e.fs.Write(fmt.Sprintf("t/f%03d", i), []byte("x"))
	}
	_, c100 := e.fs.List("t/")
	e2 := newEnv(t)
	for i := 0; i < 1000; i++ {
		e2.fs.Write(fmt.Sprintf("t/f%04d", i), []byte("x"))
	}
	_, c1000 := e2.fs.List("t/")
	if c1000 < c100*8 {
		t.Fatalf("listing cost not linear: %v vs %v", c100, c1000)
	}
}

func TestCommitSnapshotCodecRoundTrip(t *testing.T) {
	f := DataFile{
		Path: "p/f1", Partition: "province=Beijing", Rows: 10, Bytes: 1000,
		Min: []colfile.Value{colfile.StringValue("a"), colfile.IntValue(1), colfile.StringValue("B")},
		Max: []colfile.Value{colfile.StringValue("z"), colfile.IntValue(9), colfile.StringValue("S")},
	}
	c := Commit{ID: 7, Timestamp: 3 * time.Second, Ops: []FileOp{{Add: true, File: f}, {Add: false, File: f}}}
	blob, err := EncodeCommit(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCommit(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 7 || got.Timestamp != 3*time.Second || len(got.Ops) != 2 {
		t.Fatalf("commit: %+v", got)
	}
	if !got.Ops[0].Add || got.Ops[1].Add || got.Ops[0].File.Path != "p/f1" {
		t.Fatalf("ops: %+v", got.Ops)
	}
	if colfile.Compare(got.Ops[0].File.Min[1], colfile.IntValue(1)) != 0 {
		t.Fatalf("stats: %+v", got.Ops[0].File.Min)
	}

	s := Snapshot{ID: 9, ParentID: 7, Timestamp: 5 * time.Second, CommitIDs: []int64{1, 7, 9},
		Files: []DataFile{f}, RowCount: 10, AddedFiles: 1, AddedRows: 10}
	sblob, err := encodeSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := decodeSnapshot(sblob)
	if err != nil {
		t.Fatal(err)
	}
	if gs.ID != 9 || gs.ParentID != 7 || len(gs.CommitIDs) != 3 || len(gs.Files) != 1 || gs.RowCount != 10 {
		t.Fatalf("snapshot: %+v", gs)
	}
	if gs.Files[0].Partition != "province=Beijing" || gs.Files[0].Rows != 10 {
		t.Fatalf("snapshot file: %+v", gs.Files[0])
	}
	// Corrupt inputs rejected.
	if _, err := DecodeCommit(blob[:2]); err == nil {
		t.Fatal("truncated commit accepted")
	}
	if _, err := decodeSnapshot(sblob[:3]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

func TestCreateOpenTable(t *testing.T) {
	e := newEnv(t)
	tbl := createTable(t, e, "dpi_logs")
	if tbl.Schema().NumFields() != 3 {
		t.Fatalf("schema: %+v", tbl.Schema())
	}
	// Creation wrote the initial snapshot and the table properties.
	if _, _, err := e.fs.Read("/lake/dpi_logs/metadata/table.properties"); err != nil {
		t.Fatal("table.properties missing")
	}
	cur, _, err := tbl.Current()
	if err != nil || len(cur.Files) != 0 {
		t.Fatalf("initial snapshot: %+v %v", cur, err)
	}
	// Duplicate create fails.
	if _, _, err := Create(e.clock, e.fs, e.cat, TableMeta{Name: "dpi_logs", Path: "/x", Schema: dpiSchema}); !errors.Is(err, ErrTableExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	// Open by name.
	opened, err := Open(e.clock, e.fs, e.cat, "dpi_logs")
	if err != nil || opened.Meta().Path != "/lake/dpi_logs" {
		t.Fatalf("open: %+v %v", opened.Meta(), err)
	}
	if _, err := Open(e.clock, e.fs, e.cat, "nope"); !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("open unknown: %v", err)
	}
	// Invalid schemas rejected.
	if _, _, err := Create(e.clock, e.fs, e.cat, TableMeta{Name: "bad", Path: "/b"}); !errors.Is(err, ErrSchemaInvalid) {
		t.Fatalf("empty schema: %v", err)
	}
	if _, _, err := Create(e.clock, e.fs, e.cat, TableMeta{Name: "bad2", Path: "/b", Schema: dpiSchema, PartitionColumn: "zz"}); !errors.Is(err, ErrSchemaInvalid) {
		t.Fatalf("bad partition column: %v", err)
	}
}

// A CREATE TABLE that collides with an existing table writes nothing:
// the table keeps its first snapshot header, so time travel to it still
// works, and its properties file is its own.
func TestRejectedCreateLeavesTableIntact(t *testing.T) {
	e := newEnv(t)
	e.clock.Advance(time.Second)
	tbl := createTable(t, e, "t")
	props, _, _ := e.fs.Read("/lake/t/metadata/table.properties")
	e.clock.Advance(time.Second)
	x, _ := tbl.Begin()
	if _, err := x.WriteRows([]colfile.Row{dpiRow("u", 1, "Beijing")}); err != nil {
		t.Fatal(err)
	}
	if _, err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	if s, _, err := tbl.AsOf(time.Second); err != nil || s.ID != 1 {
		t.Fatalf("as of 1s before the collision: snapshot %d, %v", s.ID, err)
	}
	files := e.fs.Count()
	dup := TableMeta{Name: "t", Path: "/lake/t", Schema: dpiSchema, TargetFileSize: 1 << 20}
	if _, _, err := Create(e.clock, e.fs, e.cat, dup); !errors.Is(err, ErrTableExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if s, _, err := tbl.AsOf(time.Second); err != nil || s.ID != 1 {
		t.Fatalf("as of 1s after the collision: snapshot %d, %v", s.ID, err)
	}
	if got, _, _ := e.fs.Read("/lake/t/metadata/table.properties"); string(got) != string(props) || e.fs.Count() != files {
		t.Fatalf("the collision rewrote table.properties (%q, was %q) or wrote files (%d, was %d)", got, props, e.fs.Count(), files)
	}
}

// Of concurrent creates of one name exactly one wins; each loser returns
// ErrTableExists and leaves the winner's profile as the winner wrote it.
func TestConcurrentCreatesOneWinner(t *testing.T) {
	e := newEnv(t)
	const n = 8
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, errs[i] = Create(e.clock, e.fs, e.cat, TableMeta{Name: "t", Path: fmt.Sprintf("/lake/t%d", i), Schema: dpiSchema})
		}()
	}
	wg.Wait()
	winner := -1
	for i, err := range errs {
		switch {
		case err == nil && winner < 0:
			winner = i
		case !errors.Is(err, ErrTableExists):
			t.Fatalf("create %d: %v (winner %d)", i, err, winner)
		}
	}
	meta, err := e.cat.Get("t")
	if winner < 0 || err != nil || meta.Path != fmt.Sprintf("/lake/t%d", winner) {
		t.Fatalf("winner %d, profile %+v, %v", winner, meta, err)
	}
	if paths, _ := e.fs.List("/lake/"); len(paths) != 2 {
		t.Fatalf("files after the creates: %v, want the winner's header and properties", paths)
	}
}

func TestInsertAndScan(t *testing.T) {
	e := newEnv(t)
	tbl := createTable(t, e, "t")
	x, err := tbl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	f, err := x.WriteRows([]colfile.Row{
		dpiRow("http://a", 100, "Beijing"),
		dpiRow("http://b", 200, "Beijing"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Rows != 2 || f.Partition != "province=Beijing" {
		t.Fatalf("data file: %+v", f)
	}
	if f.Min[1].Int != 100 || f.Max[1].Int != 200 {
		t.Fatalf("file stats: %+v %+v", f.Min, f.Max)
	}
	snap, err := x.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if snap.RowCount != 2 || snap.AddedFiles != 1 {
		t.Fatalf("snapshot: %+v", snap)
	}
	// Read the rows back through the snapshot manifest.
	cur, _, _ := tbl.Current()
	if len(cur.Files) != 1 {
		t.Fatalf("manifest: %+v", cur.Files)
	}
	r, _, err := tbl.ReadFile(cur.Files[0])
	if err != nil {
		t.Fatal(err)
	}
	var dec colfile.RowDecoder
	rows, err := dec.AppendRows(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	var urls []string
	for _, row := range rows {
		urls = append(urls, row[0].Str)
	}
	if len(urls) != 2 || urls[0] != "http://a" {
		t.Fatalf("rows: %v", urls)
	}
}

// WriteRows files a batch under one partition, so it refuses a batch
// whose partition-column values differ anywhere, and writes nothing.
func TestWriteRowsRejectsPartitionSpan(t *testing.T) {
	e := newEnv(t)
	tbl := createTable(t, e, "t")
	x, err := tbl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	files := e.fs.Count()
	_, err = x.WriteRows([]colfile.Row{
		dpiRow("http://a", 1, "Beijing"),
		dpiRow("http://b", 2, "Shanghai"),
		dpiRow("http://c", 3, "Beijing"),
	})
	if !errors.Is(err, ErrPartitionSpan) || e.fs.Count() != files {
		t.Fatalf("a batch over two partitions: %v, %d files written", err, e.fs.Count()-files)
	}
	// A float partition tells -0 from 0, as its directory names do.
	ft, _, err := Create(e.clock, e.fs, e.cat, TableMeta{
		Name: "f", Path: "/lake/f", Schema: colfile.MustSchema("x:float64"), PartitionColumn: "x",
	})
	if err != nil {
		t.Fatal(err)
	}
	fx, err := ft.Begin()
	if err != nil {
		t.Fatal(err)
	}
	zero, negZero := colfile.FloatValue(0), colfile.FloatValue(math.Copysign(0, -1))
	_, spanErr := fx.WriteRows([]colfile.Row{{zero}, {negZero}})
	if _, err := fx.WriteRows([]colfile.Row{{negZero}, {negZero}}); err != nil || !errors.Is(spanErr, ErrPartitionSpan) ||
		ft.PartitionFor(colfile.Row{zero}) == ft.PartitionFor(colfile.Row{negZero}) {
		t.Fatalf("float partitions compare unlike their names: %v, %v", spanErr, err)
	}
}

// A DataFile outlives its Txn in the snapshot, so the string bounds it
// keeps must not share the rows' bytes: those may borrow a far larger
// buffer, as rows decoded from stream messages do.
func TestWriteRowsOwnsItsBounds(t *testing.T) {
	e := newEnv(t)
	tbl := createTable(t, e, "t")
	x, err := tbl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	// Three row groups of rows whose strings all share buf.
	n := 2*colfile.DefaultRowGroupSize + 7
	var buf []byte
	for i := 0; i < n; i++ {
		buf = fmt.Appendf(buf, "http://u%05dBeijing", (i*7919)%n)
	}
	lo := uintptr(unsafe.Pointer(&buf[0]))
	rows := make([]colfile.Row, n)
	for i := range rows {
		url := unsafe.String(&buf[i*20], 13)
		rows[i] = dpiRow(url, int64(i), unsafe.String(&buf[i*20+13], 7))
	}
	f, err := x.WriteRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, vs []colfile.Value) {
		t.Helper()
		for c, v := range vs {
			p := uintptr(unsafe.Pointer(unsafe.StringData(v.Str)))
			if v.Str != "" && p >= lo && p < lo+uintptr(len(buf)) {
				t.Fatalf("%s of column %d (%q) points into the rows' buffer", what, c, v.Str)
			}
		}
	}
	check("file min", f.Min)
	check("file max", f.Max)
	if f.Min[0].Str != "http://u00000" || f.Max[0].Str != fmt.Sprintf("http://u%05d", n-1) ||
		f.Min[2].Str != "Beijing" || f.Max[2].Str != "Beijing" {
		t.Fatalf("file bounds %v .. %v", f.Min, f.Max)
	}
}

func TestSnapshotIsolationReadersUnaffected(t *testing.T) {
	e := newEnv(t)
	tbl := createTable(t, e, "t")
	x, _ := tbl.Begin()
	x.WriteRows([]colfile.Row{dpiRow("u1", 1, "Beijing")})
	first, _ := x.Commit()

	// Reader pins the first snapshot.
	readerView, _, err := tbl.SnapshotByID(first.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Writer commits more data.
	x2, _ := tbl.Begin()
	x2.WriteRows([]colfile.Row{dpiRow("u2", 2, "Shanghai")})
	if _, err := x2.Commit(); err != nil {
		t.Fatal(err)
	}

	// The reader's view is unchanged; the current view has both.
	if readerView.RowCount != 1 {
		t.Fatalf("reader view mutated: %+v", readerView)
	}
	cur, _, _ := tbl.Current()
	if cur.RowCount != 2 || len(cur.Files) != 2 {
		t.Fatalf("current: %+v", cur)
	}
}

// Two transactions race from the same base: the first commits while
// the second stages, so the second's commit loses the CAS, and Write
// re-bases it without running its fn again. Both rows are in.
func TestConcurrentCommitConflictAndRetry(t *testing.T) {
	e := newEnv(t)
	tbl := createTable(t, e, "t")
	var base, first Snapshot
	runs := 0
	snap, _, err := tbl.Write(nil, func(x2 *Txn) error {
		runs++
		base.ID = x2.BaseID()
		x1, _ := tbl.Begin()
		x1.WriteRows([]colfile.Row{dpiRow("u1", 1, "Beijing")})
		var err error
		if first, err = x1.Commit(); err != nil {
			return err
		}
		_, err = x2.WriteRows([]colfile.Row{dpiRow("u2", 2, "Beijing")})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap.RowCount != 2 || snap.ParentID != first.ID || first.ParentID != base.ID || runs != 1 {
		t.Fatalf("after the re-based commit: %+v, over %d from %d, %d runs", snap, first.ID, base.ID, runs)
	}
}

// A compaction stages the removal of a file and its rewrite; a delete
// removes the file first. The compaction's commit finds the file gone
// from its new base, so Write withdraws the rewrite and plans again on
// the delete's snapshot, where there is nothing to compact.
func TestCompactionReplansWhenItsFileIsGone(t *testing.T) {
	e := newEnv(t)
	tbl := createTable(t, e, "t")
	x, _ := tbl.Begin()
	x.WriteRows([]colfile.Row{dpiRow("u1", 1, "Beijing")})
	x.Commit()

	var rewrites []DataFile
	_, _, err := tbl.Write(nil, func(compact *Txn) error {
		base, err := compact.BaseFiles(nil)
		if err != nil || len(base) == 0 {
			return err
		}
		compact.RemoveFile(base[0])
		f, err := compact.WriteRows([]colfile.Row{dpiRow("u1", 1, "Beijing")})
		rewrites = append(rewrites, f)
		if len(rewrites) == 1 {
			del, _ := tbl.Begin()
			del.RemoveFile(base[0])
			if _, err := del.Commit(); err != nil {
				return err
			}
		}
		return err
	})
	if err != nil {
		t.Fatalf("compaction over a deleted file: %v", err)
	}
	if cur, _, err := tbl.Current(); err != nil || len(cur.Files) != 0 || cur.RowCount != 0 || len(rewrites) != 1 {
		t.Fatalf("after the race: %d files, %d rows, %d rewrites (%v); want the delete's empty table", len(cur.Files), cur.RowCount, len(rewrites), err)
	}
	if _, _, err := e.fs.Read(rewrites[0].Path); !errors.Is(err, ErrNotFound) {
		t.Fatalf("the withdrawn attempt's rewrite is still stored: %v", err)
	}
}

func TestManyConcurrentWritersAllCommit(t *testing.T) {
	e := newEnv(t)
	tbl := createTable(t, e, "t")
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := tbl.Write(nil, func(x *Txn) error {
				_, err := x.WriteRows([]colfile.Row{dpiRow(fmt.Sprintf("u%d", i), int64(i), "Beijing")})
				return err
			}); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	cur, _, _ := tbl.Current()
	if cur.RowCount != 8 || len(cur.Files) != 8 {
		t.Fatalf("after 8 writers: %+v", cur)
	}
}

func TestTimeTravel(t *testing.T) {
	e := newEnv(t)
	e.clock.Advance(time.Hour) // so history has a definite beginning > 0
	tbl := createTable(t, e, "t")
	var stamps []time.Duration
	for i := 0; i < 3; i++ {
		e.clock.Advance(time.Hour)
		x, _ := tbl.Begin()
		x.WriteRows([]colfile.Row{dpiRow(fmt.Sprintf("u%d", i), int64(i), "Beijing")})
		if _, err := x.Commit(); err != nil {
			t.Fatal(err)
		}
		stamps = append(stamps, e.clock.Now())
	}
	// As of each commit time, the table has i+1 rows.
	for i, ts := range stamps {
		s, _, err := tbl.AsOf(ts)
		if err != nil {
			t.Fatal(err)
		}
		if s.RowCount != int64(i+1) {
			t.Fatalf("AsOf(%v): %d rows, want %d", ts, s.RowCount, i+1)
		}
	}
	// Between commits, the earlier snapshot is returned.
	s, _, err := tbl.AsOf(stamps[0] + 30*time.Minute)
	if err != nil || s.RowCount != 1 {
		t.Fatalf("mid-window AsOf: %+v %v", s, err)
	}
	// Before history begins: error.
	if _, _, err := tbl.AsOf(1); err == nil {
		t.Fatal("AsOf before creation succeeded")
	}
}

func TestDropSoftRestoreHard(t *testing.T) {
	e := newEnv(t)
	tbl := createTable(t, e, "t")
	x, _ := tbl.Begin()
	x.WriteRows([]colfile.Row{dpiRow("u", 1, "Beijing")})
	x.Commit()

	if _, err := tbl.DropSoft(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(e.clock, e.fs, e.cat, "t"); !errors.Is(err, ErrTableDropped) {
		t.Fatalf("open soft-dropped: %v", err)
	}
	// Data retained.
	if e.fs.Count() == 0 {
		t.Fatal("soft drop deleted files")
	}
	// Restore brings it back with data intact.
	if _, err := e.cat.Restore("t"); err != nil {
		t.Fatal(err)
	}
	restored, err := Open(e.clock, e.fs, e.cat, "t")
	if err != nil {
		t.Fatal(err)
	}
	cur, _, _ := restored.Current()
	if cur.RowCount != 1 {
		t.Fatalf("restored table: %+v", cur)
	}

	// Hard drop removes everything.
	if _, err := restored.DropHard(); err != nil {
		t.Fatal(err)
	}
	if e.fs.Count() != 0 {
		t.Fatalf("hard drop left %d files", e.fs.Count())
	}
	if _, err := Open(e.clock, e.fs, e.cat, "t"); !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("open hard-dropped: %v", err)
	}
}

func TestAbortDeletesStagedFiles(t *testing.T) {
	e := newEnv(t)
	tbl := createTable(t, e, "t")
	before := e.fs.Count()
	x, _ := tbl.Begin()
	x.WriteRows([]colfile.Row{dpiRow("u", 1, "Beijing")})
	if e.fs.Count() != before+1 {
		t.Fatal("staged file not written")
	}
	if err := x.Abort(); err != nil {
		t.Fatal(err)
	}
	if e.fs.Count() != before {
		t.Fatal("abort left staged file")
	}
	if _, err := x.Commit(); err == nil {
		t.Fatal("commit after abort accepted")
	}
}

func TestExpireSnapshots(t *testing.T) {
	e := newEnv(t)
	tbl := createTable(t, e, "t")
	for i := 0; i < 5; i++ {
		e.clock.Advance(time.Hour)
		x, _ := tbl.Begin()
		x.WriteRows([]colfile.Row{dpiRow(fmt.Sprintf("u%d", i), int64(i), "Beijing")})
		if _, err := x.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Expire snapshots older than 3 hours ago.
	cut := e.clock.Now() - 3*time.Hour
	removed, err := tbl.ExpireSnapshots(cut)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("nothing expired")
	}
	// Current data still fully readable.
	cur, _, _ := tbl.Current()
	if cur.RowCount != 5 {
		t.Fatalf("current after expire: %+v", cur)
	}
	for _, f := range cur.Files {
		if _, _, err := tbl.ReadFile(f); err != nil {
			t.Fatalf("live file %s unreadable: %v", f.Path, err)
		}
	}
	// Time travel beyond the cut now fails.
	if _, _, err := tbl.AsOf(time.Hour); err == nil {
		t.Fatal("expired snapshot still reachable")
	}
}

func TestDataFileOverlaps(t *testing.T) {
	f := DataFile{
		Min: []colfile.Value{colfile.IntValue(10)},
		Max: []colfile.Value{colfile.IntValue(20)},
	}
	lo, hi := colfile.IntValue(15), colfile.IntValue(25)
	if !f.Overlaps(0, &lo, &hi) {
		t.Fatal("overlapping range skipped")
	}
	lo2 := colfile.IntValue(21)
	if f.Overlaps(0, &lo2, nil) {
		t.Fatal("disjoint range kept")
	}
	if !f.Overlaps(5, &lo, &hi) { // no stats for column 5
		t.Fatal("missing stats must not skip")
	}
}

func TestCatalogList(t *testing.T) {
	e := newEnv(t)
	createTable(t, e, "b_table")
	createTable(t, e, "a_table")
	tbl := createTable(t, e, "c_table")
	tbl.DropSoft()
	got := e.cat.List()
	if len(got) != 2 || got[0] != "a_table" || got[1] != "b_table" {
		t.Fatalf("list: %v", got)
	}
}

func TestQuickManifestAlgebra(t *testing.T) {
	// Property: after any sequence of adds and removes committed one
	// transaction each, the manifest equals the model set and RowCount
	// equals the sum of file rows.
	f := func(ops []uint8) bool {
		e := newEnv(t)
		tbl := createTable(t, e, "q")
		model := map[string]int64{}
		for _, op := range ops {
			x, err := tbl.Begin()
			if err != nil {
				return false
			}
			if op%3 != 0 || len(model) == 0 {
				df, err := x.WriteRows([]colfile.Row{dpiRow(fmt.Sprintf("u%d", op), int64(op), "P")})
				if err != nil {
					return false
				}
				model[df.Path] = df.Rows
			} else {
				// Remove an arbitrary current file.
				cur, _, _ := tbl.Current()
				victim := cur.Files[int(op)%len(cur.Files)]
				x.RemoveFile(victim)
				delete(model, victim.Path)
			}
			if _, err := x.Commit(); err != nil {
				return false
			}
		}
		cur, _, _ := tbl.Current()
		if len(cur.Files) != len(model) {
			return false
		}
		var want int64
		for _, rows := range model {
			want += rows
		}
		for _, f := range cur.Files {
			if _, ok := model[f.Path]; !ok {
				return false
			}
		}
		return cur.RowCount == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Each handle numbers the files it writes from its own sequence, seeded
// from the snapshot pointer when the handle was opened. Begin must move
// a handle past the snapshot it reads: commits through another handle
// since then have used those ids, for data files as well.
func TestBeginAdvancesSequencePastOtherHandlesCommits(t *testing.T) {
	e := newEnv(t)
	a := createTable(t, e, "t")
	b, err := Open(e.clock, e.fs, e.cat, "t")
	if err != nil {
		t.Fatal(err)
	}
	written := map[string]bool{}
	for i := 0; i < 4; i++ {
		x, err := a.Begin()
		if err != nil {
			t.Fatal(err)
		}
		f, err := x.WriteRows([]colfile.Row{dpiRow("u", int64(i), "Beijing")})
		if err != nil {
			t.Fatal(err)
		}
		written[f.Path] = true
		if _, err := x.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	x, err := b.Begin()
	if err != nil {
		t.Fatal(err)
	}
	f, err := x.WriteRows([]colfile.Row{dpiRow("u", 99, "Beijing")})
	if err != nil {
		t.Fatal(err)
	}
	if written[f.Path] {
		t.Fatalf("second handle reused live data file %s", f.Path)
	}
	snap, err := x.Commit()
	if err != nil {
		t.Fatal(err)
	}
	cur, _, err := b.Current()
	if err != nil || snap.RowCount != 5 || cur.RowCount != 5 || len(cur.Files) != 5 {
		t.Fatalf("after the second handle's commit: %d rows in %d files (%v)", cur.RowCount, len(cur.Files), err)
	}
}

// A transaction decodes its base manifest at Commit, not at Begin: the
// base it commits against is still the snapshot Begin read, and a
// manifest that does not decode fails the commit, not silently.
func TestCommitDecodesTheBaseBeginRead(t *testing.T) {
	e := newEnv(t)
	tbl := createTable(t, e, "t")
	x0, _ := tbl.Begin()
	x0.WriteRows([]colfile.Row{dpiRow("u0", 0, "Beijing")})
	base, err := x0.Commit()
	if err != nil {
		t.Fatal(err)
	}
	var staleBase int64
	snap, _, err := tbl.Write(nil, func(stale *Txn) error { // reads base
		staleBase = stale.BaseID()
		fresh, _ := tbl.Begin()
		fresh.WriteRows([]colfile.Row{dpiRow("u1", 1, "Beijing")})
		if _, err := fresh.Commit(); err != nil {
			return err
		}
		_, err := stale.WriteRows([]colfile.Row{dpiRow("u2", 2, "Beijing")})
		return err
	})
	if err != nil || snap.RowCount != 3 || staleBase != base.ID || snap.ParentID == base.ID {
		t.Fatalf("commit against a superseded base, re-based: %+v %v", snap, err)
	}

	x, _ := tbl.Begin()
	x.WriteRows([]colfile.Row{dpiRow("u3", 3, "Beijing")})
	x.baseBlob = x.baseBlob[:len(x.baseBlob)/2]
	if _, err := x.Commit(); err == nil {
		t.Fatal("commit over an undecodable base manifest succeeded")
	}
	if cur, _, _ := tbl.Current(); cur.ID != snap.ID {
		t.Fatalf("failed commit moved the table to snapshot %d", cur.ID)
	}
}

// BenchmarkWriteRows writes one partition's 20,000 rows (three row
// groups) as a data file per iteration, then aborts, so the store stays
// empty.
func BenchmarkWriteRows(b *testing.B) {
	e := newEnv(b)
	tbl := createTable(b, e, "t")
	rows := make([]colfile.Row, 20000)
	for i := range rows {
		rows[i] = dpiRow(fmt.Sprintf("http://site-%d.example", i%37), int64(i), "Beijing")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, err := tbl.Begin()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := x.WriteRows(rows); err != nil {
			b.Fatal(err)
		}
		if err := x.Abort(); err != nil {
			b.Fatal(err)
		}
	}
}
