package convert

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"streamlake/internal/colfile"
	"streamlake/internal/lakehouse"
	"streamlake/internal/plog"
	"streamlake/internal/pool"
	"streamlake/internal/rowcodec"
	"streamlake/internal/sim"
	"streamlake/internal/streamobj"
	"streamlake/internal/streamsvc"
	"streamlake/internal/tableobj"
	"streamlake/internal/tiering"
	"streamlake/internal/workload/dpi"
)

// dpiTopic is the pipeline's conversion: raw DPI packets on an EC(4,2)
// topic are decoded, normalized and labelled into a table partitioned by
// province, and the stream copy is reclaimed.
func dpiTopic() streamsvc.TopicConfig {
	return streamsvc.TopicConfig{
		Name: "dpi", StreamNum: 2, Redundancy: plog.EC(4, 2),
		Convert: streamsvc.ConvertConfig{
			Enabled: true, TableName: "dpi_table", TablePath: "/lake/dpi",
			TableSchema: dpi.LabeledSchema, PartitionColumn: "province",
			SplitOffset: 1 << 40, DeleteMsg: true,
			Transform: func(_, value []byte) (colfile.Row, bool) {
				_, rows, err := rowcodec.Decode(value)
				if err != nil || len(rows) != 1 {
					return nil, false
				}
				norm, ok := dpi.Normalize(rows[0])
				if !ok {
					return nil, false
				}
				return dpi.Label(norm), true
			},
		},
	}
}

// newDPIEnv is newEnv with logs large enough for slices of 1.2 KB
// packets.
func newDPIEnv(tb testing.TB) *env {
	tb.Helper()
	clock := sim.NewClock()
	svc := streamsvc.New(clock, streamobj.NewStore(clock, plog.NewManager(pool.New("dpi", clock, sim.NVMeSSD, 6, 0), 8<<20)), 2)
	svc.CreateTopic(dpiTopic())
	fs := tableobj.NewFileStore(plog.NewManager(pool.New("dpifs", clock, sim.NVMeSSD, 6, 0), 8<<20))
	lh := lakehouse.New(clock, fs, tableobj.NewCatalog(clock), lakehouse.Options{Acceleration: true})
	return &env{clock: clock, svc: svc, fs: fs, lh: lh, conv: New(clock, svc, lh)}
}

func produceDPI(tb testing.TB, e *env, g *dpi.Generator, n int) {
	tb.Helper()
	p := e.svc.Producer("")
	for i := 0; i < n; i++ {
		key, val, err := g.Packet()
		if err != nil {
			tb.Fatal(err)
		}
		if _, _, err := p.Send("dpi", key, val); err != nil {
			tb.Fatal(err)
		}
	}
}

// Converting a batch of DPI messages costs a bounded number of
// allocations and bytes per row (2.5 and 588, the least of five windows;
// 2.6 and 640 under -race, where sync.Pool drops a random share of what
// it is given; 4.6 and 834 while rows waited in a map by partition for
// the commit and every message decoded its schema).
// Two are the payload decode's: the row and the rows slice, with every
// string in them borrowed from the message and the schema taken from
// rowcodec's shape table (3.6 without it). Each row is encoded into its
// partition's writer as it arrives, so none is held and no partition
// name is built per row; the writers share one compressor. The last 0.5
// is shared by a slice's or a file's rows: the flushed slice, the log
// extents, the table file and its stats. The stream slices are read
// into one reused record buffer. Normalizing and labelling reuse the
// decoded row.
func TestConvertAllocsPerRow(t *testing.T) {
	const batch, ceiling, bytesCeiling = 2000, 3.0, 650.0
	e := newDPIEnv(t)
	g := dpi.NewGenerator(5)
	produceDPI(t, e, g, 200) // the table and its first files exist
	if _, _, err := e.conv.ForceTopic("dpi", nil); err != nil {
		t.Fatal(err)
	}
	// Whether a collection empties a sync.Pool mid-conversion would move
	// the byte count by a pooled buffer: start every window with the
	// pools empty and collect nothing until its count is read. Five
	// windows of one batch each, keeping each counter's least: a window
	// also counts what the runtime allocates for itself in it.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	per, bytesPer, rows := math.Inf(1), math.Inf(1), int64(0)
	for w := 0; w < 5; w++ {
		produceDPI(t, e, g, batch)
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, _, err := e.conv.ForceTopic("dpi", nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Messages < batch*9/10 {
			t.Fatalf("converted %d of %d messages", res.Messages, batch)
		}
		rows = res.Messages
		per = min(per, float64(after.Mallocs-before.Mallocs)/float64(res.Messages))
		bytesPer = min(bytesPer, float64(after.TotalAlloc-before.TotalAlloc)/float64(res.Messages))
	}
	t.Logf("%d rows converted per window: least %.1f allocations, %.0f bytes per row", rows, per, bytesPer)
	if per > ceiling {
		t.Fatalf("conversion made %.1f allocations per row, want <= %.1f", per, ceiling)
	}
	if bytesPer > bytesCeiling {
		t.Fatalf("conversion allocated %.0f bytes per row, want <= %.0f", bytesPer, bytesCeiling)
	}
}

// BenchmarkConvert converts one batch of 1,000 DPI messages per
// iteration, produced with the timer stopped.
func BenchmarkConvert(b *testing.B) {
	e := newDPIEnv(b)
	g := dpi.NewGenerator(5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		produceDPI(b, e, g, 1000)
		b.StartTimer()
		if _, _, err := e.conv.ForceTopic("dpi", nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestArchiveRecyclesFileBuffer: a row-to-column archive pass puts the
// shared file buffer back at rest, so the table write after it borrows
// the buffer and allocates what the same write did before the pass,
// not a buffer of its own for a file of about 30 KB.
func TestArchiveRecyclesFileBuffer(t *testing.T) {
	e := newEnv(t)
	arch := NewArchiver(e.conv, tiering.NewService(e.clock, e.logs, nil))
	e.svc.CreateTopic(streamsvc.TopicConfig{
		Name: "hist", StreamNum: 1,
		Archive: streamsvc.ArchiveConfig{Enabled: true, ArchiveBytes: 1 << 10, RowToCol: true},
	})
	schema := colfile.MustSchema("v:string")
	if _, err := e.lh.CreateTable(tableobj.TableMeta{Name: "t", Path: "/lake/t", Schema: schema}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	rows := make([]colfile.Row, 400)
	for i := range rows {
		rows[i] = colfile.Row{colfile.StringValue(fmt.Sprintf("%016x%016x%016x%016x", rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()))}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	insert := func() uint64 {
		t.Helper()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := e.lh.Insert("t", rows); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	insert() // the first writes build what every later one reuses
	atRest := min(insert(), insert())
	p := e.svc.Producer("p")
	for i := 0; i < 500; i++ {
		p.Send("hist", []byte("sensor"), []byte(fmt.Sprintf("reading-%04d", i%10)))
	}
	if results, _, err := arch.RunOnce(); err != nil || len(results) != 1 {
		t.Fatalf("archive: %+v %v", results, err)
	}
	if got := insert(); got > atRest+16<<10 {
		t.Fatalf("a table write after an archive pass allocated %d KB, %d KB before it: the archive kept the file buffer", got>>10, atRest>>10)
	}
}
