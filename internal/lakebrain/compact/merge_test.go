package compact

import (
	"fmt"
	"runtime"
	"testing"

	"streamlake/internal/colfile"
	"streamlake/internal/plog"
	"streamlake/internal/pool"
	"streamlake/internal/sim"
	"streamlake/internal/tableobj"
)

// dpiLike is a six-column table row: the shape of a converted DPI log.
var dpiLike = colfile.MustSchema("url:string", "start_time:int64", "province:string", "bytes:int64", "score:float64", "labeled:bool")

func dpiLikeRow(i int, prov string) colfile.Row {
	return colfile.Row{
		colfile.StringValue(fmt.Sprintf("http://site-%d.example/%d", i%40, i%300)), colfile.IntValue(1656806400 + int64(i)),
		colfile.StringValue(prov), colfile.IntValue(int64(1000 + i%97)),
		colfile.FloatValue(float64(i%1000) * 0.01), colfile.BoolValue(i%3 == 0),
	}
}

// smallFileTable returns a table whose partition province=A holds one
// committed file per entry of sizes, of that many rows.
func smallFileTable(t testing.TB, sizes ...int) *tableobj.Table {
	t.Helper()
	clock := sim.NewClock()
	fs := tableobj.NewFileStore(plog.NewManager(pool.New("cm", clock, sim.NVMeSSD, 8, 64<<20), 64<<20))
	tbl, _, err := tableobj.Create(clock, fs, tableobj.NewCatalog(clock), tableobj.TableMeta{
		Name: "t", Path: "/t", Schema: dpiLike, PartitionColumn: "province",
	})
	if err != nil {
		t.Fatal(err)
	}
	row := 0
	for _, n := range sizes {
		rows := make([]colfile.Row, n)
		for i := range rows {
			rows[i] = dpiLikeRow(row, "A")
			row++
		}
		x, _ := tbl.Begin()
		if _, err := x.WriteRows(rows); err != nil {
			t.Fatal(err)
		}
		if _, err := x.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// TestCompactAllocsPerRow bounds what a compaction allocates per row it
// merges: 24 files of 1,000 six-column rows, one row group each, into
// one file of three. The typed column buffers are reused from group to
// group, so it is the strings a plain chunk decodes, the file bytes read
// and written, and the footers: far less than the 240 B of values a
// six-column row holds. Each window is a fresh table; the least of
// five is kept, so the runtime's own allocations in a window do not
// decide it. (Measured: 48 B a row, 191–228 B under -race; 56 B when
// the columns decoded into Values; decoding every bin into rows and
// re-encoding them, 519 B.)
func TestCompactAllocsPerRow(t *testing.T) {
	const files, rows = 24, 1000
	ceiling := uint64(52)
	if raceEnabled {
		ceiling += 224 // the race detector drops a quarter of sync.Pool puts: each dropped inflater is built again
	}
	sizes := make([]int, files)
	for i := range sizes {
		sizes[i] = rows
	}
	least := uint64(1 << 62)
	for w := 0; w < 5; w++ {
		tbl := smallFileTable(t, sizes...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		merged, _, err := CompactPartition(tbl, "province=A", 64<<20)
		runtime.ReadMemStats(&after)
		if err != nil || merged != files {
			t.Fatalf("merged %d files: %v", merged, err)
		}
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/(files*rows))
	}
	t.Logf("a compaction allocates %d B per row merged", least)
	if least > ceiling {
		t.Fatalf("a compaction allocates %d B per row merged, ceiling %d", least, ceiling)
	}
}
