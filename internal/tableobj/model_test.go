package tableobj

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"streamlake/internal/colfile"
	"streamlake/internal/plog"
	"streamlake/internal/pool"
	"streamlake/internal/sim"
)

// fullRewrite is how a commit built its snapshot before snapshots were
// headers over commit files: the base's files less those removed, then
// those added, the counts taken from that, and the commit list
// extended. head is the header the commit returned.
func fullRewrite(base, head Snapshot, adds, removes []DataFile) Snapshot {
	next := Snapshot{ID: head.ID, ParentID: base.ID, Timestamp: head.Timestamp,
		CommitIDs: append(append([]int64(nil), base.CommitIDs...), head.ID)}
	removed := make(map[string]bool, len(removes))
	for _, f := range removes {
		removed[f.Path] = true
	}
	for _, f := range base.Files {
		if removed[f.Path] {
			next.RemovedFiles++
			next.RemovedRows += f.Rows
			continue
		}
		next.Files = append(next.Files, f)
		next.RowCount += f.Rows
	}
	for _, f := range adds {
		next.Files = append(next.Files, f)
		next.RowCount += f.Rows
		next.AddedFiles++
		next.AddedRows += f.Rows
	}
	return next
}

// tableModel drives one table handle through seeded random operations
// and holds every snapshot to a naive model: the full-rewrite snapshot
// of each commit (fullRewrite) and the rows each data file was written
// with.
type tableModel struct {
	t   *testing.T
	e   *env
	tbl *Table
	rng *rand.Rand

	rows    map[string][]string // data file path → its rows, rendered
	history []Snapshot          // committed snapshots, oldest first
	pending []DataFile          // engine-style files written, not committed
	memo    *Manifest           // the last snapshot's manifest
}

func (m *tableModel) cur() Snapshot { return m.history[len(m.history)-1] }

func (m *tableModel) randomRows(n int) []colfile.Row {
	rows := make([]colfile.Row, n)
	for i := range rows {
		rows[i] = dpiRow(fmt.Sprintf("u%d", m.rng.Intn(50)), int64(m.rng.Intn(1000)),
			[]string{"Beijing", "Shanghai", "Guangzhou"}[m.rng.Intn(3)])
	}
	return rows
}

// write stages rows through x, one file per partition, and records
// each file's rows.
func (m *tableModel) write(x *Txn, rows []colfile.Row) []DataFile {
	m.t.Helper()
	byPart, sink := map[string][]colfile.Row{}, m.tbl.Sink()
	for _, r := range rows {
		p := m.tbl.PartitionFor(r)
		byPart[p] = append(byPart[p], r)
		if err := sink.Append(r); err != nil {
			m.t.Fatal(err)
		}
	}
	files, err := sink.Stage(x, nil)
	if err != nil {
		m.t.Fatal(err)
	}
	for _, f := range files {
		var out []string
		for _, r := range byPart[f.Partition] {
			out = append(out, fmt.Sprint(r))
		}
		m.rows[f.Path] = out
	}
	return files
}

// commit stages fn through Table.Write and checks what it commits.
// race, when not nil, runs once, in fn's first run after it staged:
// another writer's commit lands before this one's CAS, so Write re-bases
// the staged files or, when race removed a file fn removes, runs fn again
// on the new snapshot. fn reports an error by failing the test; one that
// stages nothing commits nothing.
func (m *tableModel) commit(fn func(x *Txn), race func()) {
	m.t.Helper()
	var last *Txn
	head, _, err := m.tbl.Write(nil, func(x *Txn) error {
		last = x
		fn(x)
		if race != nil {
			race()
			race = nil
		}
		return nil
	})
	if err != nil {
		m.t.Fatal(err)
	}
	if len(last.adds)+len(last.removes) > 0 {
		m.committed(last, head)
	}
}

// committed checks the snapshot x's commit published against the full
// rewrite of the last one, and appends it to the history.
func (m *tableModel) committed(x *Txn, head Snapshot) {
	m.t.Helper()
	want := fullRewrite(m.cur(), head, x.adds, x.removes)
	h := want
	h.Files, h.CommitIDs = nil, nil
	if !reflect.DeepEqual(head, h) {
		m.t.Fatalf("commit returned header %+v, want %+v", head, h)
	}
	m.history = append(m.history, want)
	got, _, err := m.tbl.Current()
	if err != nil || !reflect.DeepEqual(got, want) {
		m.t.Fatalf("folded snapshot differs from the full rewrite (%v):\n got %+v\nwant %+v", err, got, want)
	}
	// A memo of the last snapshot folds to what a fresh fold gives.
	fresh, _, err := LoadManifest(m.tbl.meta.Path, head.ID, nil, m.e.fs.Read)
	if err != nil {
		m.t.Fatal(err)
	}
	memo, _, err := LoadManifest(m.tbl.meta.Path, head.ID, m.memo, m.e.fs.Read)
	if err != nil || !reflect.DeepEqual(memo.Entries, fresh.Entries) || !slices.Equal(memo.CommitIDs, fresh.CommitIDs) {
		m.t.Fatalf("fold over the memo of snapshot %d differs from a fresh fold (%v)", m.memo.ID, err)
	}
	m.memo = memo
	m.checkRows(got)
}

// checkRows reads s's data files back and compares their rows with the
// rows the model wrote into them.
func (m *tableModel) checkRows(s Snapshot) {
	m.t.Helper()
	var dec colfile.RowDecoder
	for _, f := range s.Files {
		r, _, err := m.tbl.ReadFile(f)
		if err != nil {
			m.t.Fatalf("snapshot %d: %v", s.ID, err)
		}
		rows, err := dec.AppendRows(nil, r)
		if err != nil {
			m.t.Fatal(err)
		}
		var got []string
		for _, row := range rows {
			got = append(got, fmt.Sprint(row))
		}
		if !slices.Equal(got, m.rows[f.Path]) {
			m.t.Fatalf("snapshot %d, file %s: rows %v, want %v", s.ID, f.Path, got, m.rows[f.Path])
		}
	}
}

// timeTravel reads a random earlier snapshot by id and by time.
func (m *tableModel) timeTravel() {
	m.t.Helper()
	i := m.rng.Intn(len(m.history))
	want := m.history[i]
	got, _, err := m.tbl.SnapshotByID(want.ID)
	if err != nil || !reflect.DeepEqual(got, want) {
		m.t.Fatalf("SnapshotByID(%d) = %+v (%v), want %+v", want.ID, got, err, want)
	}
	for i+1 < len(m.history) && m.history[i+1].Timestamp == want.Timestamp {
		i++ // AsOf answers with the newest snapshot of a timestamp
	}
	if got, _, err = m.tbl.AsOf(want.Timestamp); err != nil || !reflect.DeepEqual(got, m.history[i]) {
		m.t.Fatalf("AsOf(%v) = snapshot %d (%v), want %d", want.Timestamp, got.ID, err, m.history[i].ID)
	}
	m.checkRows(got)
}

// compact merges one partition's files through Table.Write, planning
// on the snapshot its transaction began on. A concurrent commit lands
// between its staging and its commit: an ingest, after which Write
// re-bases it, or a delete of one of its files, after which Write runs
// it again on the new snapshot. The first run's merged file is withdrawn
// either way it is replaced. With fail set, one file does not decode and
// the compaction aborts before committing.
func (m *tableModel) compact(fail bool) {
	m.t.Helper()
	files, before := m.e.fs.Count(), m.cur()
	var firstMerge []DataFile
	race := func(victims []DataFile) {
		if m.rng.Intn(2) == 0 {
			ing, _ := m.tbl.Begin()
			m.write(ing, m.randomRows(3))
			head, err := ing.Commit()
			if err != nil {
				m.t.Fatal(err)
			}
			m.committed(ing, head)
			return
		}
		del, _ := m.tbl.Begin()
		del.RemoveFile(victims[0])
		head, err := del.Commit()
		if err != nil {
			m.t.Fatal(err)
		}
		m.committed(del, head)
	}
	var last *Txn
	runs := 0
	head, _, err := m.tbl.Write(nil, func(x *Txn) error {
		last, runs = x, runs+1
		base, err := x.BaseFiles(nil)
		if err != nil {
			m.t.Fatal(err)
		}
		byPart := map[string][]DataFile{}
		for _, f := range base {
			byPart[f.Partition] = append(byPart[f.Partition], f)
		}
		var victims []DataFile
		for _, p := range []string{"province=Beijing", "province=Shanghai", "province=Guangzhou"} {
			if len(byPart[p]) >= 2 {
				victims = byPart[p]
				break
			}
		}
		var merged []colfile.Row
		var dec colfile.RowDecoder
		for i, f := range victims {
			blob, _, err := m.e.fs.Read(f.Path)
			if err != nil {
				m.t.Fatal(err)
			}
			if fail && i == len(victims)-1 {
				blob = blob[:len(blob)/2] // the injected decode failure
			}
			r, err := colfile.Open(blob)
			if err == nil {
				merged, err = dec.AppendRows(merged, r)
			}
			if err != nil {
				return err
			}
			x.RemoveFile(f)
		}
		if len(merged) == 0 {
			return nil
		}
		staged := m.write(x, merged)
		if firstMerge == nil {
			firstMerge = staged
			race(victims)
		}
		return nil
	})
	if fail && err != nil {
		if now, _, _ := m.tbl.Current(); m.e.fs.Count() != files || !reflect.DeepEqual(now, before) {
			m.t.Fatalf("an aborted compaction left %d files (was %d) and snapshot %d (was %d)", m.e.fs.Count(), files, now.ID, before.ID)
		}
		return
	}
	if err != nil {
		m.t.Fatal(err)
	}
	if len(last.adds)+len(last.removes) > 0 {
		m.committed(last, head)
	}
	if runs > 1 {
		if _, _, err := m.e.fs.Read(firstMerge[0].Path); !errors.Is(err, ErrNotFound) {
			m.t.Fatalf("the merged file of a compaction that planned again is still stored: %v", err)
		}
	}
}

// expire drops the snapshots before a random point of the history and
// checks that every retained one still reads, the expired ones do not,
// and the data files left are those a retained snapshot or a pending
// engine-style write holds.
func (m *tableModel) expire() {
	m.t.Helper()
	i := m.rng.Intn(len(m.history))
	for i > 0 && m.history[i-1].Timestamp == m.history[i].Timestamp {
		i--
	}
	cut := m.history[i].Timestamp
	if _, err := m.tbl.ExpireSnapshots(cut); err != nil {
		m.t.Fatal(err)
	}
	m.history = m.history[i:]
	keep := map[string]bool{}
	for _, f := range m.pending {
		keep[f.Path] = true
	}
	for _, s := range m.history {
		got, _, err := m.tbl.SnapshotByID(s.ID)
		if err != nil || !reflect.DeepEqual(got, s) {
			m.t.Fatalf("retained snapshot %d after expiry: %+v (%v)", s.ID, got, err)
		}
		for _, f := range s.Files {
			keep[f.Path] = true
		}
	}
	m.checkRows(m.cur())
	if _, _, err := m.tbl.AsOf(cut - 1); err == nil {
		m.t.Fatalf("AsOf before the expiry cut %v still answers", cut)
	}
	data, _ := m.e.fs.List(m.tbl.meta.Path + "/data/")
	if len(data) != len(keep) {
		m.t.Fatalf("%d data files after expiry, %d still referenced", len(data), len(keep))
	}
}

// TestTableMatchesRowModel runs seeded random sequences of
// converter-style commits (write and commit in one Table.Write),
// engine-style commits (files written by one transaction, committed by
// a later flush), OCC races that Write re-bases, compactions against an
// ingest and against a delete, a compaction whose input does not decode,
// time travel and expiry, across checkpoint boundaries, and holds every
// snapshot to the naive model.
func TestTableMatchesRowModel(t *testing.T) {
	seeds, ops := 8, 160
	if testing.Short() {
		seeds, ops = 3, 60
	}
	for seed := 1; seed <= seeds; seed++ {
		e := newEnv(t)
		e.clock.Advance(time.Hour)
		m := &tableModel{t: t, e: e, tbl: createTable(t, e, "t"), rng: rand.New(rand.NewSource(int64(seed))), rows: map[string][]string{}}
		first, _, err := m.tbl.Current()
		if err != nil {
			t.Fatal(err)
		}
		m.history = []Snapshot{first}
		checkpoints := 0
		for op := 0; op < ops; op++ {
			e.clock.Advance(time.Duration(m.rng.Intn(3)) * time.Minute)
			switch k := m.rng.Intn(10); {
			case k < 3: // converter-style
				rows := m.randomRows(1 + m.rng.Intn(6))
				m.commit(func(x *Txn) { m.write(x, rows) }, nil)
			case k < 5: // engine-style: Insert writes, a later flush commits
				x, _ := m.tbl.Begin()
				m.pending = append(m.pending, m.write(x, m.randomRows(1+m.rng.Intn(4)))...)
				if len(m.pending) >= 3 {
					pending := m.pending
					m.pending = nil
					m.commit(func(f *Txn) {
						for _, df := range pending {
							f.AddFile(df)
						}
					}, nil)
				}
			case k < 6: // two writers race from one base
				rows := m.randomRows(2)
				m.commit(func(b *Txn) { m.write(b, rows) }, func() {
					a, _ := m.tbl.Begin()
					m.write(a, m.randomRows(2))
					head, err := a.Commit()
					if err != nil {
						t.Fatal(err)
					}
					m.committed(a, head)
				})
			case k < 8:
				m.compact(m.rng.Intn(4) == 0)
			case k < 9:
				m.timeTravel()
			default:
				m.expire()
			}
			if h, _, err := m.tbl.header(m.cur().ID); err == nil && h.checkpoint == h.ID {
				checkpoints++
			}
		}
		if checkpoints < 3 {
			t.Fatalf("seed %d: %d operations crossed only %d checkpoints", seed, ops, checkpoints)
		}
	}
}

// syntheticFile is the metadata of a data file never written: three
// columns of stats, about 100 bytes encoded.
func syntheticFile(i int) DataFile {
	return DataFile{Path: fmt.Sprintf("/lake/t/data/province=Beijing/%012d.col", i), Partition: "province=Beijing",
		Rows: 100, Bytes: 4000,
		Min: []colfile.Value{colfile.StringValue(fmt.Sprintf("http://site-%d/a", i)), colfile.IntValue(int64(i)), colfile.StringValue("Beijing")},
		Max: []colfile.Value{colfile.StringValue(fmt.Sprintf("http://site-%d/z", i)), colfile.IntValue(int64(i + 99)), colfile.StringValue("Beijing")}}
}

// storedBytes sums the sizes of fs's files.
func storedBytes(fs *FileStore) (n int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, e := range fs.files {
		n += e.size
	}
	return n
}

// TestCommitBytesFlatInFiles is the gate on what committing one file
// writes: over 256 one-file commits, the mean metadata bytes a commit
// writes on a table of 1,000 files are within 2x of those on a table of
// 100. A commit that rewrites the whole manifest writes about 10x.
func TestCommitBytesFlatInFiles(t *testing.T) {
	perCommit := func(files int) float64 {
		clock := sim.NewClock()
		fs := NewFileStore(plog.NewManager(pool.New("tbl", clock, sim.NVMeSSD, 8, 64<<20), 8<<20))
		tbl, _, err := Create(clock, fs, NewCatalog(clock), TableMeta{Name: "t", Path: "/lake/t", Schema: dpiSchema, PartitionColumn: "province"})
		if err != nil {
			t.Fatal(err)
		}
		x, _ := tbl.Begin()
		for i := 0; i < files; i++ {
			x.AddFile(syntheticFile(i))
		}
		if _, err := x.Commit(); err != nil {
			t.Fatal(err)
		}
		before := storedBytes(fs)
		for i := 0; i < 256; i++ {
			x, _ := tbl.Begin()
			x.AddFile(syntheticFile(files + i))
			if _, err := x.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		return float64(storedBytes(fs)-before) / 256
	}
	small, large := perCommit(100), perCommit(1000)
	t.Logf("mean metadata bytes per one-file commit: %.0f at 100 files, %.0f at 1,000", small, large)
	if large > 2*small {
		t.Fatalf("a one-file commit writes %.0f B at 1,000 files, %.1fx the %.0f B at 100; want within 2x", large, large/small, small)
	}
}

// A commit whose second or third metadata write fails withdraws the
// files it wrote before it, as a losing CAS does: the file count and
// the snapshot pointer are as before the commit.
func TestFailedMetadataWriteLeavesNoFiles(t *testing.T) {
	for _, failAt := range []int{2, 3} {
		clock := sim.NewClock()
		p := pool.New("tbl", clock, sim.NVMeSSD, 8, 4<<20)
		mgr := plog.NewManager(p, 8<<20)
		e := &env{clock: clock, fs: NewFileStore(mgr), cat: NewCatalog(clock)}
		tbl := createTable(t, e, "t")
		x, _ := tbl.Begin()
		if _, err := x.WriteRows([]colfile.Row{dpiRow("u", 1, "Beijing")}); err != nil {
			t.Fatal(err)
		}
		files := e.fs.Count()
		ptr, _ := e.cat.SnapshotPointer("t")
		calls := 0
		mgr.SetPlacer(func(width int) ([]*pool.Slice, error) {
			if calls++; calls == failAt {
				for d := 0; d < 3; d++ { // five healthy disks: too few for EC(4,2)
					p.FailDisk(pool.DiskID(d))
				}
			}
			return p.AllocGroup(width)
		})
		if _, err := x.Commit(); err == nil {
			t.Fatalf("write %d of the commit failed, yet it committed", failAt)
		}
		if got, _ := e.cat.SnapshotPointer("t"); e.fs.Count() != files || got != ptr || calls != failAt {
			t.Fatalf("write %d failed: %d files (was %d), pointer %d (was %d), %d writes", failAt, e.fs.Count(), files, got, ptr, calls)
		}
	}
}
