package convert

import (
	"fmt"
	"testing"
	"time"

	"streamlake/internal/colfile"
	"streamlake/internal/lakehouse"
	"streamlake/internal/plog"
	"streamlake/internal/pool"
	"streamlake/internal/sim"
	"streamlake/internal/streamobj"
	"streamlake/internal/streamsvc"
	"streamlake/internal/tableobj"
	"streamlake/internal/tiering"
)

type env struct {
	clock *sim.Clock
	svc   *streamsvc.Service
	fs    *tableobj.FileStore
	cat   *tableobj.Catalog
	lh    *lakehouse.Engine
	conv  *Converter
}

var logSchema = colfile.MustSchema("url:string", "start_time:int64", "province:string")

func newEnv(t testing.TB) *env {
	t.Helper()
	clock := sim.NewClock()
	p := pool.New("conv", clock, sim.NVMeSSD, 6, 4<<20)
	mgr := plog.NewManager(p, 64<<10)
	store := streamobj.NewStore(clock, mgr)
	svc := streamsvc.New(clock, store, 2)
	fs := tableobj.NewFileStore(plog.NewManager(pool.New("convfs", clock, sim.NVMeSSD, 6, 4<<20), 8<<20))
	cat := tableobj.NewCatalog(clock)
	lh := lakehouse.New(clock, fs, cat, lakehouse.Options{Acceleration: true})
	return &env{clock: clock, svc: svc, fs: fs, cat: cat, lh: lh, conv: New(clock, svc, lh)}
}

func convertTopic(name string) streamsvc.TopicConfig {
	return streamsvc.TopicConfig{
		Name:      name,
		StreamNum: 2,
		Convert:   ConvertCfg(name),
	}
}

// ConvertCfg builds a standard conversion config for tests.
func ConvertCfg(name string) streamsvc.ConvertConfig {
	return streamsvc.ConvertConfig{
		Enabled:         true,
		TableName:       name + "_table",
		TablePath:       "/lake/" + name,
		TableSchema:     logSchema,
		PartitionColumn: "province",
		SplitOffset:     100,
		SplitTime:       time.Hour,
	}
}

func produceRows(t testing.TB, e *env, topic string, n int) {
	t.Helper()
	p := e.svc.Producer("") // fresh identity per batch: these are new senders, not retries
	provs := []string{"Beijing", "Shanghai", "Guangdong"}
	for i := 0; i < n; i++ {
		row := colfile.Row{
			colfile.StringValue(fmt.Sprintf("http://a/%d", i)),
			colfile.IntValue(int64(1000 + i)),
			colfile.StringValue(provs[i%3]),
		}
		val, err := EncodeRow(logSchema, row)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := p.Send(topic, []byte(fmt.Sprintf("k%d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRowCodecHelpers(t *testing.T) {
	row := colfile.Row{colfile.StringValue("u"), colfile.IntValue(7), colfile.StringValue("B")}
	data, err := EncodeRow(logSchema, row)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRow(data)
	if err != nil || len(got) != 3 || got[1].Int != 7 {
		t.Fatalf("decode: %+v %v", got, err)
	}
	if _, err := DecodeRow([]byte("junk")); err == nil {
		t.Fatal("junk decoded")
	}
}

func TestConversionTriggeredByCount(t *testing.T) {
	e := newEnv(t)
	e.svc.CreateTopic(convertTopic("logs"))
	produceRows(t, e, "logs", 50) // below SplitOffset=100
	results, _, err := e.conv.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Fatalf("converted below threshold: %+v", results)
	}
	produceRows(t, e, "logs", 60) // now 110 pending
	results, cost, err := e.conv.RunOnce()
	if err != nil || len(results) != 1 {
		t.Fatalf("conversion: %+v %v", results, err)
	}
	if results[0].Messages != 110 || cost <= 0 {
		t.Fatalf("result: %+v", results[0])
	}
	// The table now holds all rows, partitioned by province.
	tbl, _, err := tableobj.Open(e.clock, e.fs, e.cat, "logs_table")
	if err != nil {
		t.Fatal(err)
	}
	cur, _, _ := tbl.Current()
	if cur.RowCount != 110 {
		t.Fatalf("table rows: %d", cur.RowCount)
	}
	parts := map[string]bool{}
	for _, f := range cur.Files {
		parts[f.Partition] = true
	}
	if len(parts) != 3 {
		t.Fatalf("partitions: %v", parts)
	}
}

func TestConversionTriggeredByTime(t *testing.T) {
	e := newEnv(t)
	cfg := convertTopic("slow")
	cfg.Convert.SplitOffset = 1 << 40 // count trigger unreachable
	cfg.Convert.SplitTime = 10 * time.Minute
	e.svc.CreateTopic(cfg)
	produceRows(t, e, "slow", 5)
	if results, _, _ := e.conv.RunOnce(); len(results) != 0 {
		t.Fatal("converted before time trigger")
	}
	e.clock.Advance(11 * time.Minute)
	results, _, err := e.conv.RunOnce()
	if err != nil || len(results) != 1 || results[0].Messages != 5 {
		t.Fatalf("time-triggered: %+v %v", results, err)
	}
}

func TestConversionIncremental(t *testing.T) {
	e := newEnv(t)
	e.svc.CreateTopic(convertTopic("inc"))
	produceRows(t, e, "inc", 120)
	if _, _, err := e.conv.RunOnce(); err != nil {
		t.Fatal(err)
	}
	produceRows(t, e, "inc", 150)
	results, _, err := e.conv.RunOnce()
	if err != nil || len(results) != 1 {
		t.Fatalf("second run: %+v %v", results, err)
	}
	if results[0].Messages != 150 {
		t.Fatalf("incremental run re-read old messages: %+v", results[0])
	}
	if e.conv.Converted("inc") != 270 {
		t.Fatalf("converted total: %d", e.conv.Converted("inc"))
	}
	tbl, _, _ := tableobj.Open(e.clock, e.fs, e.cat, "inc_table")
	cur, _, _ := tbl.Current()
	if cur.RowCount != 270 {
		t.Fatalf("table rows: %d", cur.RowCount)
	}
}

func TestDeleteMsgReclaimsStreamStorage(t *testing.T) {
	e := newEnv(t)
	cfg := convertTopic("reclaim")
	cfg.Convert.DeleteMsg = true
	cfg.StreamNum = 1
	e.svc.CreateTopic(cfg)
	produceRows(t, e, "reclaim", 2000)
	results, _, err := e.conv.RunOnce()
	if err != nil || len(results) != 1 {
		t.Fatalf("conversion: %v", err)
	}
	if results[0].FreedLog <= 0 {
		t.Fatalf("no stream storage reclaimed: %+v", results[0])
	}
	// The table copy is intact.
	tbl, _, _ := tableobj.Open(e.clock, e.fs, e.cat, "reclaim_table")
	cur, _, _ := tbl.Current()
	if cur.RowCount != 2000 {
		t.Fatalf("table rows: %d", cur.RowCount)
	}
}

func TestMalformedMessagesCounted(t *testing.T) {
	e := newEnv(t)
	e.svc.CreateTopic(convertTopic("bad"))
	p := e.svc.Producer("p")
	for i := 0; i < 5; i++ {
		p.Send("bad", []byte("k"), []byte("not-a-row"))
	}
	produceRows(t, e, "bad", 3)
	res, _, err := e.conv.ForceTopic("bad")
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 3 || res.Malformed != 5 {
		t.Fatalf("result: %+v", res)
	}
}

func TestForceTopicRequiresConversion(t *testing.T) {
	e := newEnv(t)
	e.svc.CreateTopic(streamsvc.TopicConfig{Name: "plain"})
	if _, _, err := e.conv.ForceTopic("plain"); err == nil {
		t.Fatal("ForceTopic on non-convert topic succeeded")
	}
	if _, _, err := e.conv.ForceTopic("ghost"); err == nil {
		t.Fatal("ForceTopic on unknown topic succeeded")
	}
}

func TestPlaybackTableToStream(t *testing.T) {
	e := newEnv(t)
	e.svc.CreateTopic(convertTopic("src"))
	produceRows(t, e, "src", 150)
	if _, _, err := e.conv.ForceTopic("src"); err != nil {
		t.Fatal(err)
	}
	tbl, _, _ := tableobj.Open(e.clock, e.fs, e.cat, "src_table")
	snap, _, _ := tbl.Current()

	// Play the table back into a fresh topic.
	e.svc.CreateTopic(streamsvc.TopicConfig{Name: "replay", StreamNum: 2})
	n, cost, err := Playback(tbl, snap, e.svc.Producer("pb"), "replay")
	if err != nil || n != 150 || cost <= 0 {
		t.Fatalf("playback: n=%d %v", n, err)
	}
	c := e.svc.Consumer("g")
	c.Subscribe("replay")
	total := 0
	for {
		msgs, _, err := c.Poll(256)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) == 0 {
			break
		}
		for _, m := range msgs {
			if _, err := DecodeRow(m.Value); err != nil {
				t.Fatalf("replayed message not a row: %v", err)
			}
		}
		total += len(msgs)
	}
	if total != 150 {
		t.Fatalf("replayed %d messages", total)
	}
}

func TestArchiverRowToCol(t *testing.T) {
	e := newEnv(t)
	tiers := tiering.NewService(e.clock, tiering.Policy{})
	arch := NewArchiver(e.clock, e.svc, tiers)
	cfg := streamsvc.TopicConfig{
		Name: "hist", StreamNum: 1,
		Archive: streamsvc.ArchiveConfig{Enabled: true, ArchiveBytes: 1 << 10, RowToCol: true},
	}
	e.svc.CreateTopic(cfg)
	p := e.svc.Producer("p")
	for i := 0; i < 500; i++ {
		p.Send("hist", []byte("sensor"), []byte(fmt.Sprintf("reading-%04d", i%10)))
	}
	results, cost, err := arch.RunOnce()
	if err != nil || len(results) != 1 {
		t.Fatalf("archive: %+v %v", results, err)
	}
	r := results[0]
	if r.Messages != 500 || cost <= 0 {
		t.Fatalf("result: %+v", r)
	}
	// Columnar re-encoding compresses the repetitive values.
	if r.ArchivedBytes >= r.RawBytes {
		t.Fatalf("row_2_col did not shrink: %d >= %d", r.ArchivedBytes, r.RawBytes)
	}
	if r.Freed <= 0 {
		t.Fatal("archiving did not reclaim hot storage")
	}
	st := tiers.Stats()
	if st.BytesPerTier[tiering.Archive] != r.ArchivedBytes {
		t.Fatalf("archive tier: %+v", st)
	}
	// Below threshold afterwards: second run is a no-op.
	if results, _, _ := arch.RunOnce(); len(results) != 0 {
		t.Fatalf("re-archived: %+v", results)
	}
}

func TestArchiverExternalExport(t *testing.T) {
	e := newEnv(t)
	tiers := tiering.NewService(e.clock, tiering.Policy{})
	arch := NewArchiver(e.clock, e.svc, tiers)
	e.svc.CreateTopic(streamsvc.TopicConfig{
		Name: "exp", StreamNum: 1,
		Archive: streamsvc.ArchiveConfig{Enabled: true, ArchiveBytes: 100, ExternalURL: "hdfs://legacy/archive"},
	})
	p := e.svc.Producer("p")
	for i := 0; i < 50; i++ {
		p.Send("exp", []byte("k"), []byte("0123456789"))
	}
	results, _, err := arch.RunOnce()
	if err != nil || len(results) != 1 || !results[0].External {
		t.Fatalf("external archive: %+v %v", results, err)
	}
	if arch.ExternalBytes() == 0 {
		t.Fatal("no bytes exported")
	}
	if st := tiers.Stats(); st.BytesPerTier[tiering.Archive] != 0 {
		t.Fatal("external export also landed in archive tier")
	}
}
