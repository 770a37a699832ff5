package streamlake_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"streamlake"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ instead of comparing with them")

// checkMetricsGolden is the one check every /metrics golden goes
// through: see checkGolden; the file is testdata/metrics/<name>.prom.
func checkMetricsGolden(t *testing.T, name string, run func(*testing.T) []byte) []byte {
	t.Helper()
	return checkGolden(t, filepath.Join("testdata", "metrics", name+".prom"), run)
}

// checkGolden is the one check every golden under testdata/ goes
// through: run produces the text twice in this process, the two must be
// byte-identical (so a map-order or wall-clock draw fails where it is
// made), and then the text must equal the file at path. With -update
// the file is rewritten instead. It returns the text.
func checkGolden(t *testing.T, path string, run func(*testing.T) []byte) []byte {
	t.Helper()
	a, b := run(t), run(t)
	if len(a) == 0 {
		t.Fatal("empty output")
	}
	if d := firstDiff(a, b); d != "" {
		t.Fatalf("two runs of one seeded workload render different text: %s", d)
	}
	if *update {
		if err := os.WriteFile(path, a, 0o644); err != nil {
			t.Fatal(err)
		}
		return a
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (go test -run %s -update writes it)", err, t.Name())
	}
	if d := firstDiff(a, want); d != "" {
		t.Fatalf("output differs from %s: %s", path, d)
	}
	return a
}

// firstDiff describes the first line where got and want differ, or
// returns "" when they are byte-identical.
func firstDiff(got, want []byte) string {
	if bytes.Equal(got, want) {
		return ""
	}
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; ; i++ {
		if i >= len(g) || i >= len(w) {
			return fmt.Sprintf("%d lines against %d", len(g), len(w))
		}
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
}

func renderMetrics(t *testing.T, lake *streamlake.Lake) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := lake.Obs().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// drainTopic polls topic with a fresh consumer group until it is empty.
func drainTopic(t *testing.T, lake *streamlake.Lake, group, topic string) {
	t.Helper()
	c := lake.Consumer(group)
	if err := c.Subscribe(topic); err != nil {
		t.Fatal(err)
	}
	for {
		msgs, _, err := c.Poll(128)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) == 0 {
			return
		}
	}
}

// runSeededWorkload drives one fixed workload across the whole stack —
// produce, consume, convert, SQL, fault + scrub/repair — and returns
// the lake's rendered /metrics text.
func runSeededWorkload(t *testing.T) []byte {
	t.Helper()
	lake, err := streamlake.Open(streamlake.Config{PLogCapacity: 1 << 20, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	schema := streamlake.MustSchema("k:string", "v:int64")
	if err := lake.CreateTopic(streamlake.TopicConfig{
		Name: "events", StreamNum: 2,
		Convert: streamlake.ConvertConfig{
			Enabled: true, TableName: "events_t", TablePath: "/events_t",
			TableSchema: schema,
		},
	}); err != nil {
		t.Fatal(err)
	}
	p := lake.Producer("det")
	for i := 0; i < 400; i++ {
		row := streamlake.Row{streamlake.StringValue(fmt.Sprintf("k%d", i%7)), streamlake.IntValue(int64(i))}
		val, err := streamlake.EncodeRow(schema, row)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := p.Send("events", []byte(fmt.Sprintf("k%d", i%7)), val); err != nil {
			t.Fatal(err)
		}
	}
	drainTopic(t, lake, "g", "events")
	if _, _, err := lake.ConvertNow("events"); err != nil {
		t.Fatal(err)
	}
	if _, err := lake.Query("select count(*) from events_t"); err != nil {
		t.Fatal(err)
	}
	// Exercise the failure path too: its randomness comes from the seed.
	if _, err := lake.Faults().KillRandomDisk("ssd"); err != nil {
		t.Fatal(err)
	}
	p.Send("events", []byte("after-fault"), []byte("v"))
	lake.RepairUntilRedundant(4)
	if _, err := lake.RunScrub(); err != nil {
		t.Fatal(err)
	}
	return renderMetrics(t, lake)
}

// runClusterWorkload drives the read side of a three-node lake with a
// read cache and one tenant: repeated drains and queries fill the cache
// past its DRAM tier into SCM and out of it, slow SSDs make reads
// hedge, a killed disk leaves degraded logs for repair, and a corrupt
// copy gives the scrubber a mismatch to repair.
func runClusterWorkload(t *testing.T) []byte {
	t.Helper()
	lake, err := streamlake.Open(streamlake.Config{
		Nodes:        3,
		CacheMB:      2,
		PLogCapacity: 1 << 20,
		Seed:         42,
		Tenants:      []streamlake.TenantConfig{{Name: "gold"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	schema := streamlake.MustSchema("k:string", "v:int64")
	if err := lake.CreateTopic(streamlake.TopicConfig{
		Name: "events", StreamNum: 2,
		Convert: streamlake.ConvertConfig{
			Enabled: true, TableName: "events_t", TablePath: "/events_t",
			TableSchema: schema,
		},
	}); err != nil {
		t.Fatal(err)
	}
	p := lake.TenantProducer("det", "gold")
	pad := bytes.Repeat([]byte("x"), 900)
	send := func(i int) {
		row := streamlake.Row{streamlake.StringValue(fmt.Sprintf("k%d%s", i%7, pad)), streamlake.IntValue(int64(i))}
		val, err := streamlake.EncodeRow(schema, row)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := p.Send("events", []byte(fmt.Sprintf("k%d", i%7)), val); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2400; i++ {
		send(i)
		if i%64 == 0 {
			lake.Clock().Advance(time.Millisecond)
			lake.Cluster().Tick()
		}
	}
	for _, g := range []string{"g1", "g2", "g3"} {
		drainTopic(t, lake, g, "events")
	}
	if _, _, err := lake.ConvertNow("events"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := lake.Query("select count(*) from events_t where v > 100"); err != nil {
			t.Fatal(err)
		}
	}
	// Two slow SSDs: reads that miss the cache race a second replica.
	for _, disk := range []int{1, 5} {
		if err := lake.Faults().DegradeDisk("ssd", disk, 3*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	lake.FlushCache()
	for _, g := range []string{"g4", "g5"} {
		drainTopic(t, lake, g, "events")
	}
	// Appends past a dead disk leave stale copies: repair moves them to a
	// live disk and rebuilds them there while the disk is still down, so
	// the pass after the revival finds nothing left to do.
	disk, err := lake.Faults().KillRandomDisk("ssd")
	if err != nil {
		t.Fatal(err)
	}
	for i := 2400; i < 3000; i++ {
		send(i)
	}
	lake.RepairUntilRedundant(2)
	if err := lake.Faults().ReviveDisk("ssd", disk); err != nil {
		t.Fatal(err)
	}
	lake.RepairUntilRedundant(4)
	if _, err := lake.Faults().CorruptRandom("ssd"); err != nil {
		t.Fatal(err)
	}
	if _, err := lake.RunScrub(); err != nil {
		t.Fatal(err)
	}
	return renderMetrics(t, lake)
}

// TestMetricsDeterministic: the full Prometheus exposition of a seeded
// workload — histogram bucket counts included — is byte-identical run
// to run and equal to its golden, because every instrument measures
// virtual time and seeded randomness, never the wall clock.
func TestMetricsDeterministic(t *testing.T) {
	checkMetricsGolden(t, "seeded", runSeededWorkload)
}

// TestMetricsDeterministicCluster: the same for the three-node lake
// with cache, hedging, scrub and repair all active, so every layer that
// publishes its Stats on /metrics is pinned by a golden.
func TestMetricsDeterministicCluster(t *testing.T) {
	checkMetricsGolden(t, "cluster", runClusterWorkload)
}
