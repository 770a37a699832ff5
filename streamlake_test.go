package streamlake

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"streamlake/internal/colfile"
	"streamlake/internal/lakehouse"
	"streamlake/internal/plog"
	"streamlake/internal/tiering"
)

var logSchema = MustSchema("url:string", "start_time:int64", "province:string")

func openTestLake(t testing.TB) *Lake {
	t.Helper()
	l, err := Open(Config{PLogCapacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestConfigKnobRatchet caps the number of Config fields: every knob
// doubles the configurations tests and benchmarks must cover, so a new
// plane that wants a field deletes one first. Lower the cap as fields
// go, never raise it.
func TestConfigKnobRatchet(t *testing.T) {
	const maxFields = 9
	if n := reflect.TypeOf(Config{}).NumField(); n > maxFields {
		t.Fatalf("Config has %d fields, cap is %d: delete a knob before adding one", n, maxFields)
	}
}

// TestConvertedFilesCarryZoneMaps: conversion writes through the
// engine's handle on the table, so on a ZoneMaps lake converted files
// carry zone maps and blooms exactly as inserted ones do, and a
// selective scan prunes on them. The one converted file holds two row
// groups with a gap between their start_time ranges; a probe into the
// gap overlaps the file's min/max but no zone.
func TestConvertedFilesCarryZoneMaps(t *testing.T) {
	l, err := Open(Config{ZoneMaps: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.CreateTopic(TopicConfig{Name: "zm", StreamNum: 1, Convert: ConvertConfig{
		Enabled: true, TableName: "zm_table", TablePath: "/lake/zm",
		TableSchema: logSchema, PartitionColumn: "province", SplitOffset: 1 << 40,
	}}); err != nil {
		t.Fatal(err)
	}
	p := l.Producer("app")
	const groups = 2 * colfile.DefaultRowGroupSize
	for i := 0; i < groups; i++ {
		ts := int64(i)
		if i >= colfile.DefaultRowGroupSize {
			ts += 1 << 20
		}
		val, err := EncodeRow(logSchema, Row{StringValue("u"), IntValue(ts), StringValue("Beijing")})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := p.Send("zm", []byte("k"), val); err != nil {
			t.Fatal(err)
		}
	}
	if res, _, err := l.ConvertNow("zm"); err != nil || res.Messages != groups {
		t.Fatalf("conversion: %+v %v", res, err)
	}
	snap, err := l.TableSnapshot("zm_table")
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Files) == 0 {
		t.Fatal("conversion wrote no files")
	}
	for _, f := range snap.Files {
		if len(f.Zones) == 0 || len(f.Blooms) == 0 {
			t.Fatalf("converted file %s: %d zones, %d blooms; want both", f.Path, len(f.Zones), len(f.Blooms))
		}
	}
	lo, hi := IntValue(1<<19), IntValue(1<<19+10)
	plan, _, err := l.Engine().PlanScan("zm_table", []lakehouse.RangeFilter{{Column: "start_time", Lo: &lo, Hi: &hi}})
	if err != nil {
		t.Fatal(err)
	}
	if plan.ZonePrunedFiles == 0 {
		t.Fatalf("selective scan zone-pruned nothing: %+v", plan)
	}
}

func TestEndToEndStreamToSQL(t *testing.T) {
	l := openTestLake(t)
	err := l.CreateTopic(TopicConfig{
		Name:      "dpi",
		StreamNum: 2,
		Convert: ConvertConfig{
			Enabled:         true,
			TableName:       "dpi_table",
			TablePath:       "/lake/dpi",
			TableSchema:     logSchema,
			PartitionColumn: "province",
			SplitOffset:     10,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := l.Producer("app")
	for i := 0; i < 100; i++ {
		row := Row{
			StringValue("http://fin.app"),
			IntValue(int64(1000 + i)),
			StringValue([]string{"Beijing", "Shanghai"}[i%2]),
		}
		val, err := EncodeRow(logSchema, row)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := p.Send("dpi", []byte(fmt.Sprintf("k%d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	results, _, err := l.RunConversion()
	if err != nil || len(results) != 1 || results[0].Messages != 100 {
		t.Fatalf("conversion: %+v %v", results, err)
	}
	res, err := l.Query("select count(*) from dpi_table group by province")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("groups: %+v", res.Rows)
	}
	// Consumers still see the stream copy.
	c := l.Consumer("g")
	if err := c.Subscribe("dpi"); err != nil {
		t.Fatal(err)
	}
	msgs, _, err := c.Poll(256)
	if err != nil || len(msgs) == 0 {
		t.Fatalf("poll: %d %v", len(msgs), err)
	}
}

func TestTableLifecycle(t *testing.T) {
	l := openTestLake(t)
	if err := l.CreateTable(TableMeta{Name: "t", Path: "/t", Schema: logSchema, PartitionColumn: "province"}); err != nil {
		t.Fatal(err)
	}
	var rows []Row
	for i := 0; i < 50; i++ {
		rows = append(rows, Row{StringValue("u"), IntValue(int64(i)), StringValue("Beijing")})
	}
	if err := l.Insert("t", rows); err != nil {
		t.Fatal(err)
	}
	if err := l.FlushTable("t"); err != nil {
		t.Fatal(err)
	}
	lo, hi := IntValue(10), IntValue(19)
	n, err := l.Delete("t", "start_time", &lo, &hi)
	if err != nil || n != 10 {
		t.Fatalf("delete: %d %v", n, err)
	}
	upLo := IntValue(0)
	n, err = l.Update("t", "start_time", &upLo, &upLo, func(r Row) Row {
		r[0] = StringValue("masked")
		return r
	})
	if err != nil || n != 1 {
		t.Fatalf("update: %d %v", n, err)
	}
	res, err := l.Query("select count(*) from t")
	if err != nil || res.Rows[0][0] != "40" {
		t.Fatalf("count: %+v %v", res.Rows, err)
	}
	if err := l.DropTableSoft("t"); err != nil {
		t.Fatal(err)
	}
	if err := l.RestoreTable("t"); err != nil {
		t.Fatal(err)
	}
	if err := l.DropTableHard("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Query("select count(*) from t"); err == nil {
		t.Fatal("query after hard drop succeeded")
	}
}

func TestTimeTravelFacade(t *testing.T) {
	l := openTestLake(t)
	l.Clock().Advance(time.Hour)
	l.CreateTable(TableMeta{Name: "t", Path: "/t", Schema: logSchema})
	l.Insert("t", []Row{{StringValue("a"), IntValue(1), StringValue("B")}})
	l.FlushTable("t")
	mark := l.Clock().Now()
	l.Clock().Advance(time.Hour)
	l.Insert("t", []Row{{StringValue("b"), IntValue(2), StringValue("B")}})
	l.FlushTable("t")

	cur, err := l.TableSnapshot("t")
	if err != nil || cur.RowCount != 2 {
		t.Fatalf("current: %+v %v", cur, err)
	}
	old, err := l.TableAsOf("t", mark)
	if err != nil || old.RowCount != 1 {
		t.Fatalf("as-of: %+v %v", old, err)
	}
}

func TestCompactTableFacade(t *testing.T) {
	l := openTestLake(t)
	l.CreateTable(TableMeta{Name: "t", Path: "/t", Schema: logSchema, PartitionColumn: "province"})
	for i := 0; i < 8; i++ {
		l.Insert("t", []Row{{StringValue("u"), IntValue(int64(i)), StringValue("Beijing")}})
	}
	l.FlushTable("t")
	merged, err := l.CompactTable("t", "province=Beijing", 1<<20)
	if err != nil || merged != 8 {
		t.Fatalf("compact: %d %v", merged, err)
	}
	res, _ := l.Query("select count(*) from t")
	if res.Rows[0][0] != "8" {
		t.Fatalf("rows after compact: %v", res.Rows)
	}
}

func TestScaleWorkersFacade(t *testing.T) {
	l := openTestLake(t)
	l.CreateTopic(TopicConfig{Name: "t", StreamNum: 32})
	moved, cost := l.ScaleWorkers(9)
	if moved == 0 || cost <= 0 {
		t.Fatalf("scale: moved=%d cost=%v", moved, cost)
	}
}

func TestStats(t *testing.T) {
	l := openTestLake(t)
	l.CreateTopic(TopicConfig{Name: "t", StreamNum: 2})
	p := l.Producer("x")
	p.Send("t", []byte("k"), []byte("v"))
	st := l.Stats()
	if st.Topics != 1 || st.StreamObjects != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestPlaybackFacade(t *testing.T) {
	l := openTestLake(t)
	l.CreateTable(TableMeta{Name: "src", Path: "/src", Schema: logSchema})
	l.Insert("src", []Row{
		{StringValue("a"), IntValue(1), StringValue("B")},
		{StringValue("b"), IntValue(2), StringValue("S")},
	})
	l.FlushTable("src")
	snap, _ := l.TableSnapshot("src")
	l.CreateTopic(TopicConfig{Name: "replay", StreamNum: 1})
	n, _, err := l.Playback("src", snap, "replay")
	if err != nil || n != 2 {
		t.Fatalf("playback: %d %v", n, err)
	}
}

// coldTopicLake opens a lake whose "cold" topic holds 2000 1 KiB
// messages: enough to seal PLogs of 1 MiB capacity for tiering to move.
func coldTopicLake(t *testing.T) *Lake {
	t.Helper()
	l := openTestLake(t)
	l.CreateTopic(TopicConfig{Name: "cold", StreamNum: 1})
	p := l.Producer("gen")
	payload := make([]byte, 1<<10)
	for i := 0; i < 2000; i++ {
		if _, _, err := p.Send("cold", []byte(fmt.Sprint(i)), payload); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

func TestTieringAndReplicationIntegration(t *testing.T) {
	l := coldTopicLake(t)
	// Two passes establish quiescence and register the cold logs;
	// nothing migrates while they are fresh.
	l.RunTiering()
	migs, _ := l.RunTiering()
	if len(migs) != 0 {
		t.Fatalf("fresh data migrated: %+v", migs)
	}
	// After the demotion window, quiescent logs drain to HDD.
	l.Clock().Advance(2 * time.Hour)
	migs, cost := l.RunTiering()
	if len(migs) == 0 || cost <= 0 {
		t.Fatalf("no migrations after idle window: %+v", migs)
	}
	// Migrations are physical, not bookkeeping: the sealed logs' slices
	// now occupy the HDD pool, and the data still reads back.
	if used := l.hddPool.Stats().Used; used == 0 {
		t.Fatal("tiering reported migrations but no bytes moved to the HDD pool")
	}
	c := l.Consumer("cold-reader")
	if err := c.Subscribe("cold"); err != nil {
		t.Fatal(err)
	}
	var got int
	for {
		msgs, _, err := c.Poll(256)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) == 0 {
			break
		}
		got += len(msgs)
	}
	if got != 2000 {
		t.Fatalf("drained %d messages after migration, want 2000", got)
	}
}

// TestTieringCostIsItsPoolMoves: the tiering service only decides moves
// and plog.Migrate performs and charges them, so a pass costs exactly
// its pool moves. A same-seed twin lake makes the same moves by hand
// through PLog.Migrate, and the two costs must agree.
func TestTieringCostIsItsPoolMoves(t *testing.T) {
	tiered, twin := coldTopicLake(t), coldTopicLake(t)
	tiered.RunTiering()
	tiered.RunTiering()
	tiered.Clock().Advance(2 * time.Hour)
	migs, cost := tiered.RunTiering()
	var moved int
	var want time.Duration
	for _, m := range migs {
		var id plog.ID
		if _, err := fmt.Sscanf(m.ID, "plog/%d", &id); err != nil {
			t.Fatal(err)
		}
		if m.To != tiering.HDD || !twin.Logs().Get(id).Sealed() {
			continue // open logs tier by accounting only
		}
		c, err := twin.Logs().Get(id).Migrate(twin.HDDPool())
		if err != nil {
			t.Fatal(err)
		}
		want += c
		moved++
	}
	if moved == 0 {
		t.Fatalf("tiering moved no sealed log: %+v", migs)
	}
	if cost != want {
		t.Fatalf("tiering charged %v for %d log moves that cost %v in the pools", cost, moved, want)
	}
}

// TestClusteredMetadataLifecycle pins the symmetric replication of
// creates AND deletes through the metadata log: a deleted topic's key is
// tombstoned (so a minority partition can neither create nor delete),
// and a recreate under the same name replicates again instead of hitting
// the stale dedup entry.
func TestClusteredMetadataLifecycle(t *testing.T) {
	l, err := Open(Config{Nodes: 3, PLogCapacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.CreateTopic(TopicConfig{Name: "lifecycle", StreamNum: 2}); err != nil {
		t.Fatal(err)
	}
	if !l.clus.MetaCommitted("topic/lifecycle") {
		t.Fatal("create did not replicate")
	}
	if err := l.DeleteTopic("lifecycle"); err != nil {
		t.Fatal(err)
	}
	if l.clus.MetaCommitted("topic/lifecycle") {
		t.Fatal("delete did not tombstone the replicated key")
	}
	applied := l.clus.Applied()
	if err := l.CreateTopic(TopicConfig{Name: "lifecycle", StreamNum: 2}); err != nil {
		t.Fatal(err)
	}
	if !l.clus.MetaCommitted("topic/lifecycle") || l.clus.Applied() <= applied {
		t.Fatal("recreate after delete skipped replication")
	}
	// Table drops and restores replicate the same way.
	if err := l.CreateTable(TableMeta{Name: "tbl", Schema: logSchema}); err != nil {
		t.Fatal(err)
	}
	if err := l.DropTableSoft("tbl"); err != nil {
		t.Fatal(err)
	}
	if l.clus.MetaCommitted("table/tbl") {
		t.Fatal("soft drop did not tombstone the replicated key")
	}
	if err := l.RestoreTable("tbl"); err != nil {
		t.Fatal(err)
	}
	if !l.clus.MetaCommitted("table/tbl") {
		t.Fatal("restore did not re-replicate the registration")
	}
	if err := l.DropTableHard("tbl"); err != nil {
		t.Fatal(err)
	}
	if l.clus.MetaCommitted("table/tbl") {
		t.Fatal("hard drop did not tombstone the replicated key")
	}
}

// TestOneNodeLakeIsOneNodeCluster: Nodes 0 and 1 open the same lake, a
// one-node cluster whose lone voter won term 1 at Open without moving
// the virtual clock, and whose produce acks commit through the metadata
// log like a larger cluster's.
func TestOneNodeLakeIsOneNodeCluster(t *testing.T) {
	for _, nodes := range []int{0, 1} {
		l, err := Open(Config{Nodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		st := l.Cluster().Status()
		if len(st.Nodes) != 1 || st.Leader != 0 || st.Term != 1 || st.Stats.Elections != 1 {
			t.Fatalf("Nodes: %d opened %d node(s), leader %d, term %d, %d election(s); want 1, 0, 1, 1",
				nodes, len(st.Nodes), st.Leader, st.Term, st.Stats.Elections)
		}
		if now := l.Clock().Now(); now != 0 {
			t.Fatalf("Nodes: %d: opening advanced the clock to %v", nodes, now)
		}
		if err := l.CreateTopic(TopicConfig{Name: "t", StreamNum: 1}); err != nil {
			t.Fatal(err)
		}
		msg, _, err := l.Producer("p").Send("t", []byte("k"), []byte("v"))
		if err != nil {
			t.Fatal(err)
		}
		if !l.Cluster().ProduceCommitted("t", msg.Stream, msg.Offset, 1) {
			t.Fatalf("Nodes: %d: the acked send is not in the metadata log", nodes)
		}
	}
}

// TestTableRedundancyOutlastsTheQuorum: table files use the widest
// EC(k,2) whose shards the node failures a quorum survives cannot take
// three of — EC(3,2) on five nodes, one shard per node, and EC(4,2)
// where six shards spread thin enough (or no k would do).
func TestTableRedundancyOutlastsTheQuorum(t *testing.T) {
	for nodes, want := range map[int]plog.Redundancy{1: plog.EC(4, 2), 3: plog.EC(4, 2), 4: plog.EC(4, 2),
		5: plog.EC(3, 2), 6: plog.EC(4, 2), 9: plog.EC(4, 2)} {
		if got := tableRedundancy(nodes); got != want {
			t.Errorf("%d nodes: %+v, want %+v", nodes, got, want)
		}
	}
}
