package streamlake

// Cross-module integration and failure-injection tests: scenarios that
// span the stream service, conversion, lakehouse, and the simulated
// storage substrate, including degraded operation after disk failures.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"streamlake/internal/plog"
	"streamlake/internal/pool"
	"streamlake/internal/repair"
	"streamlake/internal/sim"
	"streamlake/internal/streamobj"
	"streamlake/internal/streamsvc"
	"streamlake/internal/tiering"
)

// TestDegradedReadsAfterDiskFailure injects a disk failure under a
// replicated stream object and verifies reads continue from surviving
// replicas, then repairs and verifies full health.
func TestDegradedReadsAfterDiskFailure(t *testing.T) {
	clock := sim.NewClock()
	p := pool.New("it", clock, sim.NVMeSSD, 4, 4<<20)
	mgr := plog.NewManager(p, 1<<20)
	store := streamobj.NewStore(clock, mgr)
	svc := streamsvc.New(clock, store, 2)
	if err := svc.CreateTopic(streamsvc.TopicConfig{Name: "t", StreamNum: 2, Redundancy: plog.ReplicateN(3)}); err != nil {
		t.Fatal(err)
	}
	prod := svc.Producer("p")
	for i := 0; i < 1000; i++ {
		if _, _, err := prod.Send("t", []byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Kill a disk. Three-way replication tolerates it.
	if err := p.FailDisk(0); err != nil {
		t.Fatal(err)
	}
	c := svc.Consumer("g")
	c.Subscribe("t")
	total := 0
	for {
		msgs, _, err := c.Poll(256)
		if err != nil {
			t.Fatalf("degraded poll: %v", err)
		}
		if len(msgs) == 0 {
			break
		}
		total += len(msgs)
	}
	if total != 1000 {
		t.Fatalf("degraded read returned %d/1000 messages", total)
	}
	// Writes go on degraded; repair relocates the dead disk's copies and
	// restores redundancy.
	for i := 0; i < 600; i++ {
		if _, _, err := prod.Send("t", []byte(fmt.Sprintf("after%d", i)), []byte("recovery")); err != nil {
			t.Fatalf("produce after the failure: %v", err)
		}
	}
	if _, ok := repair.New(clock, mgr).RunUntilRedundant(8); !ok {
		t.Fatal("repair left logs degraded")
	}
	if p.Stats().Reconstructed == 0 {
		t.Fatal("nothing reconstructed")
	}
}

// TestOneCopyLifecycle exercises the paper's central storage story end
// to end: ingest, convert with delete_msg, verify the stream copy is
// reclaimed while the table answers queries, then play the table back
// into a stream.
func TestOneCopyLifecycle(t *testing.T) {
	lake, err := Open(Config{PLogCapacity: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	schema := MustSchema("url:string", "ts:int64", "province:string")
	if err := lake.CreateTopic(TopicConfig{
		Name: "events", StreamNum: 1,
		Convert: ConvertConfig{
			Enabled: true, TableName: "events_tbl", TablePath: "/events",
			TableSchema: schema, PartitionColumn: "province",
			SplitOffset: 100, DeleteMsg: true,
		},
	}); err != nil {
		t.Fatal(err)
	}
	p := lake.Producer("src")
	for i := 0; i < 3000; i++ {
		row := Row{StringValue("u"), IntValue(int64(i)), StringValue([]string{"B", "S"}[i%2])}
		val, _ := EncodeRow(schema, row)
		if _, _, err := p.Send("events", []byte(fmt.Sprint(i)), val); err != nil {
			t.Fatal(err)
		}
	}
	physBefore := lake.Stats().PhysicalBytes
	results, _, err := lake.RunConversion()
	if err != nil || len(results) != 1 {
		t.Fatalf("conversion: %+v %v", results, err)
	}
	if results[0].FreedLog == 0 {
		t.Fatal("delete_msg reclaimed nothing")
	}
	// The one remaining copy answers SQL.
	res, err := lake.Query("select count(*) from events_tbl group by province")
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("query: %+v %v", res, err)
	}
	// Physical storage did not double from the conversion: the stream
	// side was reclaimed (columnar table + redundancy remains).
	physAfter := lake.Stats().PhysicalBytes
	if physAfter > physBefore {
		t.Fatalf("conversion grew storage: %d -> %d", physBefore, physAfter)
	}
	// Reverse conversion: play the table back as a stream.
	snap, err := lake.TableSnapshot("events_tbl")
	if err != nil {
		t.Fatal(err)
	}
	if err := lake.CreateTopic(TopicConfig{Name: "replay", StreamNum: 2}); err != nil {
		t.Fatal(err)
	}
	n, _, err := lake.Playback("events_tbl", snap, "replay")
	if err != nil || n != 3000 {
		t.Fatalf("playback: %d %v", n, err)
	}
}

// TestConcurrentPipelines runs producers, conversion, and queries
// concurrently under the race detector.
func TestConcurrentPipelines(t *testing.T) {
	lake, err := Open(Config{PLogCapacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	schema := MustSchema("k:string", "v:int64", "p:string")
	if err := lake.CreateTopic(TopicConfig{
		Name: "hot", StreamNum: 4,
		Convert: ConvertConfig{
			Enabled: true, TableName: "hot_tbl", TablePath: "/hot",
			TableSchema: schema, PartitionColumn: "p", SplitOffset: 200,
		},
	}); err != nil {
		t.Fatal(err)
	}
	var producers sync.WaitGroup
	for w := 0; w < 3; w++ {
		producers.Add(1)
		go func(w int) {
			defer producers.Done()
			p := lake.Producer(fmt.Sprintf("p%d", w))
			for i := 0; i < 800; i++ {
				row := Row{StringValue("k"), IntValue(int64(i)), StringValue("A")}
				val, _ := EncodeRow(schema, row)
				if _, _, err := p.Send("hot", []byte(fmt.Sprintf("%d-%d", w, i)), val); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Converter loop runs until the producers finish.
	stop := make(chan struct{})
	var services sync.WaitGroup
	services.Add(1)
	go func() {
		defer services.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := lake.RunConversion(); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	// A consumer polls concurrently.
	services.Add(1)
	go func() {
		defer services.Done()
		c := lake.Consumer("watcher")
		c.Subscribe("hot")
		for i := 0; i < 50; i++ {
			if _, _, err := c.Poll(100); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	producers.Wait()
	close(stop)
	services.Wait()

	// Final conversion drains everything; the table must hold all rows.
	if _, _, err := lake.ConvertNow("hot"); err != nil {
		t.Fatal(err)
	}
	res, err := lake.Query("select count(*) from hot_tbl")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != "2400" {
		t.Fatalf("table rows: %v, want 2400", res.Rows)
	}
}

// TestECFaultToleranceEndToEnd uses erasure-coded streams and verifies
// the system survives exactly M disk failures and not more.
func TestECFaultToleranceEndToEnd(t *testing.T) {
	clock := sim.NewClock()
	p := pool.New("ec-it", clock, sim.NVMeSSD, 6, 4<<20)
	store := streamobj.NewStore(clock, plog.NewManager(p, 1<<20))
	obj, err := store.Create(streamobj.CreateOptions{Topic: "t", Redundancy: plog.EC(4, 2)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		if _, _, err := obj.Append([]streamobj.Record{{Key: []byte("k"), Value: []byte(fmt.Sprintf("v%d", i))}}, "p", int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	// M=2 failures: still readable.
	p.FailDisk(0)
	p.FailDisk(1)
	recs, _, err := obj.Read(0, streamobj.ReadCtrl{MaxRecords: 10})
	if err != nil || len(recs) != 10 {
		t.Fatalf("read with 2 failures: %d %v", len(recs), err)
	}
	// Third failure exceeds fault tolerance for stripes touching all
	// three disks; at least some reads must now fail.
	p.FailDisk(2)
	failed := false
	for off := int64(0); off < obj.End(); off += 256 {
		if _, _, err := obj.Read(off, streamobj.ReadCtrl{MaxRecords: 1}); err != nil {
			failed = true
			break
		}
	}
	if !failed {
		t.Fatal("no read failed with 3 of 6 disks down under EC(4,2)")
	}
}

// faultWorkload produces total messages on topic, invoking kill(i) before
// message i for each scheduled kill, and asserts every append succeeds
// (degraded writes must absorb the failures). It returns the produced
// count.
func faultWorkload(t *testing.T, lake *Lake, topic string, total int, kills map[int]func()) {
	t.Helper()
	p := lake.Producer("") // fresh identity: repeated calls must not dedupe

	for i := 0; i < total; i++ {
		if kill := kills[i]; kill != nil {
			kill()
		}
		if _, _, err := p.Send(topic, []byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("append %d with disks down: %v", i, err)
		}
	}
}

// drainAll consumes every message of a topic from offset zero and
// verifies the count — the zero-data-loss check after fault injection.
func drainAll(t *testing.T, lake *Lake, topic string, want int) {
	t.Helper()
	c := lake.Consumer("fault-check")
	if err := c.Subscribe(topic); err != nil {
		t.Fatal(err)
	}
	total := 0
	for {
		msgs, _, err := c.Poll(256)
		if err != nil {
			t.Fatalf("poll after faults: %v", err)
		}
		if len(msgs) == 0 {
			break
		}
		total += len(msgs)
	}
	if total != want {
		t.Fatalf("consumed %d/%d messages after faults", total, want)
	}
}

// TestFaultInjectionReplicatedWorkload kills FaultTolerance disks
// mid-workload under 3-way replication: appends keep succeeding
// (degraded), no message is lost, and the repair service restores full
// redundancy in bounded virtual time while the dead disks stay dead.
func TestFaultInjectionReplicatedWorkload(t *testing.T) {
	lake, err := Open(Config{PLogCapacity: 64 << 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := lake.CreateTopic(TopicConfig{Name: "rep", StreamNum: 2, Redundancy: ReplicateN(3)}); err != nil {
		t.Fatal(err)
	}
	inj := lake.Faults()
	// Streams flush a slice to their PLog chain every 256 records; the
	// kills land between flushes so later flushes append to chains whose
	// placement groups contain dead disks.
	const total = 2000
	faultWorkload(t, lake, "rep", total, map[int]func(){
		600: func() {
			if err := inj.KillDisk("ssd", 0); err != nil {
				t.Fatal(err)
			}
		},
		1200: func() {
			if _, err := inj.KillRandomDisk("ssd"); err != nil {
				t.Fatal(err)
			}
		},
	})
	if len(inj.KilledDisks()) != 2 {
		t.Fatalf("killed disks: %v", inj.KilledDisks())
	}
	st := lake.Stats()
	if st.DegradedLogs == 0 || st.StaleBytes == 0 {
		t.Fatalf("no degradation recorded after 2 disk kills: %+v", st)
	}
	drainAll(t, lake, "rep", total)
	// Repair with the disks still dead: stale copies relocate onto the
	// surviving disks.
	before := lake.Clock().Now()
	rep, ok := lake.RepairUntilRedundant(8)
	if !ok {
		t.Fatalf("redundancy not restored: %+v", rep)
	}
	if rep.RepairedBytes == 0 || rep.Cost <= 0 {
		t.Fatalf("repair report: %+v", rep)
	}
	elapsed := lake.Clock().Now() - before
	if elapsed < rep.Cost {
		t.Fatalf("repair cost %v not charged to the clock (elapsed %v)", rep.Cost, elapsed)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("repair took unbounded virtual time: %v", elapsed)
	}
	if st := lake.Stats(); st.DegradedLogs != 0 || st.StaleBytes != 0 {
		t.Fatalf("stale state after repair: %+v", st)
	}
	// The lake keeps serving: appends and reads work post-repair.
	faultWorkload(t, lake, "rep", 50, nil)
	drainAll(t, lake, "rep", total+50)
}

// TestFaultInjectionErasureCodedWorkload is the EC(4,2) variant: exactly
// M=2 disks die mid-workload, appends degrade but never fail, reads
// reconstruct from K shards, and repair re-encodes the missing columns
// onto spare disks.
func TestFaultInjectionErasureCodedWorkload(t *testing.T) {
	lake, err := Open(Config{SSDDisks: 8, PLogCapacity: 64 << 10, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := lake.CreateTopic(TopicConfig{Name: "ec", StreamNum: 1, Redundancy: EC(4, 2)}); err != nil {
		t.Fatal(err)
	}
	inj := lake.Faults()
	const total = 800
	faultWorkload(t, lake, "ec", total, map[int]func(){
		300: func() {
			if err := inj.KillDisk("ssd", 0); err != nil {
				t.Fatal(err)
			}
		},
		600: func() {
			if err := inj.KillDisk("ssd", 1); err != nil {
				t.Fatal(err)
			}
		},
	})
	drainAll(t, lake, "ec", total)
	rep, ok := lake.RepairUntilRedundant(8)
	if !ok {
		t.Fatalf("EC redundancy not restored: %+v", rep)
	}
	if st := lake.Stats(); st.DegradedLogs != 0 || st.StaleBytes != 0 {
		t.Fatalf("stale state after EC repair: %+v", st)
	}
	// Reconstruction I/O was charged to the pool.
	if ps := lake.SSDPool().Stats(); ps.Reconstructed == 0 {
		t.Fatalf("no reconstruction recorded: %+v", ps)
	}
	drainAll(t, lake, "ec", total)
	faultWorkload(t, lake, "ec", 50, nil)
}

// TestTransientWriteErrorsAbsorbedAndRepaired drives a seeded transient
// write-error rate through a replicated workload: appends degrade, the
// repair service heals the fallout once the error burst ends, and the
// whole scenario replays deterministically from the lake seed.
func TestTransientWriteErrorsAbsorbedAndRepaired(t *testing.T) {
	run := func() (int64, int64) {
		lake, err := Open(Config{PLogCapacity: 64 << 10, Seed: 23})
		if err != nil {
			t.Fatal(err)
		}
		if err := lake.CreateTopic(TopicConfig{Name: "flaky", StreamNum: 1, Redundancy: ReplicateN(3)}); err != nil {
			t.Fatal(err)
		}
		lake.Faults().SetWriteErrorRate(0.2)
		faultWorkload(t, lake, "flaky", 300, nil)
		injected := lake.Faults().Stats().InjectedWriteErrors
		if injected == 0 {
			t.Fatal("no transient errors injected at rate 0.2")
		}
		stale := lake.Stats().StaleBytes
		if stale == 0 {
			t.Fatal("transient write errors left no stale copies")
		}
		drainAll(t, lake, "flaky", 300)
		lake.Faults().SetWriteErrorRate(0)
		if rep, ok := lake.RepairUntilRedundant(8); !ok {
			t.Fatalf("repair after transient errors: %+v", rep)
		}
		drainAll(t, lake, "flaky", 300)
		return injected, stale
	}
	i1, s1 := run()
	i2, s2 := run()
	if i1 != i2 || s1 != s2 {
		t.Fatalf("seeded scenario not deterministic: (%d,%d) vs (%d,%d)", i1, s1, i2, s2)
	}
}

// TestTieringLifecycleWithArchiver wires the tiering service and
// archiver to a topic and verifies cold data drains off the hot tier.
func TestTieringLifecycleWithArchiver(t *testing.T) {
	lake, err := Open(Config{PLogCapacity: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := lake.CreateTopic(TopicConfig{
		Name: "history", StreamNum: 1,
		Archive: ArchiveConfig{Enabled: true, ArchiveBytes: 10 << 10, RowToCol: true},
	}); err != nil {
		t.Fatal(err)
	}
	p := lake.Producer("gen")
	for i := 0; i < 2000; i++ {
		if _, _, err := p.Send("history", []byte("sensor"), []byte(fmt.Sprintf("reading-%06d", i%50))); err != nil {
			t.Fatal(err)
		}
	}
	arch := lake.Archiver()
	results, _, err := arch.RunOnce()
	if err != nil || len(results) != 1 {
		t.Fatalf("archive: %+v %v", results, err)
	}
	if results[0].Freed == 0 || results[0].ArchivedBytes >= results[0].RawBytes {
		t.Fatalf("archive result: %+v", results[0])
	}
	st := lake.Tiering().Stats()
	if st.BytesPerTier[tiering.Archive] == 0 {
		t.Fatal("nothing landed in the archive tier")
	}
}

// TestRepairRestoresRedundancyOnCluster: one SSD dies on a live cluster
// and repair must restore full redundancy with that disk still dead. The
// lost copy's only homes share a node with a surviving copy (the dead
// disk's node-mate, or a node that already holds one), so relocation must
// fall back to the least-crowded node rather than refuse every node that
// holds a copy of the group.
func TestRepairRestoresRedundancyOnCluster(t *testing.T) {
	for _, tc := range []struct {
		name  string
		nodes int
		disks int
		red   Redundancy
	}{
		{"nodes=3/replicate3", 3, 0, ReplicateN(3)},
		{"nodes=3/ec4+2", 3, 9, EC(4, 2)},
		{"nodes=2/replicate3", 2, 0, ReplicateN(3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lake, err := Open(Config{Nodes: tc.nodes, SSDDisks: tc.disks, PLogCapacity: 64 << 10, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if err := lake.CreateTopic(TopicConfig{Name: "rep", StreamNum: 2, Redundancy: tc.red}); err != nil {
				t.Fatal(err)
			}
			const total = 1200
			faultWorkload(t, lake, "rep", total, map[int]func(){
				600: func() {
					if err := lake.Faults().KillDisk("ssd", 0); err != nil {
						t.Fatal(err)
					}
				},
			})
			if st := lake.Stats(); st.DegradedLogs == 0 {
				t.Fatalf("no degradation recorded after the kill: %+v", st)
			}
			rep, ok := lake.RepairUntilRedundant(8)
			if !ok || rep.RepairedBytes == 0 {
				t.Fatalf("redundancy not restored with ssd 0 dead: ok=%v %+v", ok, rep)
			}
			drainAll(t, lake, "rep", total)
		})
	}
}

// TestNodeLossRepairKeepsCopiesApart: a whole node dies, repair runs
// while it is down, and the node comes back. Every group must end with
// its three copies on three nodes: a copy lost with its node waits for
// that node instead of moving in beside a surviving copy, where it would
// stay after the revival.
func TestNodeLossRepairKeepsCopiesApart(t *testing.T) {
	lake, err := Open(Config{Nodes: 3, PLogCapacity: 64 << 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := lake.CreateTopic(TopicConfig{Name: "rep", StreamNum: 2, Redundancy: ReplicateN(3)}); err != nil {
		t.Fatal(err)
	}
	cl := lake.Cluster()
	const victim = 2
	settle := func(alive bool) {
		for i := 0; cl.CurrentView().Alive[victim] != alive; i++ {
			if i == 400 {
				t.Fatalf("node %d never declared alive=%v", victim, alive)
			}
			lake.Clock().Advance(time.Millisecond)
			cl.Tick()
		}
	}
	const total = 1200
	faultWorkload(t, lake, "rep", total, map[int]func(){
		600: func() {
			if err := cl.KillNode(victim); err != nil {
				t.Fatal(err)
			}
			settle(false)
		},
	})
	lake.RepairUntilRedundant(8)
	if err := cl.ReviveNode(victim); err != nil {
		t.Fatal(err)
	}
	settle(true)
	if reb := cl.RunRebalance(2 * time.Second); !reb.Complete {
		t.Fatalf("rebalance left %d degraded logs", reb.RemainingLogs)
	}
	nodeOf := cl.CurrentView().DiskNode[lake.SSDPool().Name()]
	for _, info := range lake.Logs().Logs() {
		seen := map[int]bool{}
		for _, s := range lake.Logs().Get(info.ID).Placement() {
			n := nodeOf[s.Disk]
			if seen[n] {
				t.Fatalf("log %d keeps two copies on node %d after the revival", info.ID, n)
			}
			seen[n] = true
		}
	}
	drainAll(t, lake, "rep", total)
}
