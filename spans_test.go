package streamlake_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"streamlake"
	"streamlake/internal/gateway"
	"streamlake/internal/lakebrain/compact"
)

// runPollDrain drains a two-stream topic whose 256-record slices a
// Poll(500) straddles, tracing every poll with one consumer, and
// returns the span trees.
func runPollDrain(t *testing.T) []byte {
	t.Helper()
	lake, err := streamlake.Open(streamlake.Config{PLogCapacity: 1 << 20, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := lake.CreateTopic(streamlake.TopicConfig{Name: "dpi", StreamNum: 2}); err != nil {
		t.Fatal(err)
	}
	p := lake.Producer("spans")
	value := bytes.Repeat([]byte("x"), 64)
	for i := 0; i < 1300; i++ {
		if _, _, err := p.Send("dpi", []byte(fmt.Sprintf("k%d", i)), value); err != nil {
			t.Fatal(err)
		}
	}
	c := lake.Consumer("g")
	if err := c.Subscribe("dpi"); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for n := -1; n != 0; {
		sp := lake.Tracer().Start("streamsvc.poll")
		msgs, cost, err := c.PollSpanCtx(500, sp, nil)
		if err != nil {
			t.Fatal(err)
		}
		sp.End(cost)
		n = len(msgs)
		fmt.Fprintf(&out, "poll: %d message(s)\n%s", n, sp.Tree())
	}
	return out.Bytes()
}

// TestPollSpanGolden pins the consume path's span tree: a drain of a
// straddled topic renders streamsvc.poll → streamobj.read → plog.read,
// byte-identical to testdata/spans/poll.txt.
func TestPollSpanGolden(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "spans", "poll.txt"), runPollDrain)
}

// A topic with the SCM cache keeps its recently flushed slices in
// storage-class memory, so a poll of them is served from there: every
// slice load of the drain is src=scm, none reaches the PLog's devices.
func TestSCMCacheServesRecentSlices(t *testing.T) {
	lake, err := streamlake.Open(streamlake.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := lake.CreateTopic(streamlake.TopicConfig{Name: "hot", StreamNum: 1, SCMCache: true}); err != nil {
		t.Fatal(err)
	}
	p := lake.Producer("spans")
	for i := 0; i < 600; i++ { // two flushed slices and an open tail
		if _, _, err := p.Send("hot", []byte(fmt.Sprintf("k%d", i)), bytes.Repeat([]byte("x"), 64)); err != nil {
			t.Fatal(err)
		}
	}
	c := lake.Consumer("g")
	if err := c.Subscribe("hot"); err != nil {
		t.Fatal(err)
	}
	sp := lake.Tracer().Start("streamsvc.poll")
	msgs, cost, err := c.PollSpanCtx(500, sp, nil)
	if err != nil || len(msgs) != 500 {
		t.Fatalf("poll: %d message(s), %v", len(msgs), err)
	}
	sp.End(cost)
	tree := sp.Tree()
	if strings.Count(tree, "src=scm") != 2 || strings.Contains(tree, "src=device") {
		t.Fatalf("slice loads of a cached topic:\n%s", tree)
	}
}

// sqlTraceLake opens a lake holding a partitioned table loaded in
// several inserts, and returns it with a selective projection over it.
func sqlTraceLake(t *testing.T) (*streamlake.Lake, string) {
	t.Helper()
	lake, err := streamlake.Open(streamlake.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	schema := streamlake.MustSchema("url:string", "start_time:int64", "province:string", "bytes:int64")
	if err := lake.CreateTable(streamlake.TableMeta{Name: "logs", Path: "/logs", Schema: schema, PartitionColumn: "province"}); err != nil {
		t.Fatal(err)
	}
	provinces := []string{"bj", "sh", "gz"}
	for b := 0; b < 4; b++ {
		var rows []streamlake.Row
		for i := 0; i < 60; i++ {
			ts := int64(b*100 + i)
			rows = append(rows, streamlake.Row{
				streamlake.StringValue(fmt.Sprintf("http://site/%d", i%7)), streamlake.IntValue(ts),
				streamlake.StringValue(provinces[i%len(provinces)]), streamlake.IntValue(ts % 13),
			})
		}
		if err := lake.Insert("logs", rows); err != nil {
			t.Fatal(err)
		}
	}
	if err := lake.FlushTable("logs"); err != nil {
		t.Fatal(err)
	}
	return lake, "select url, bytes from logs where start_time >= 120 and start_time < 150"
}

// runSQLTrace traces a selective projection, a full GROUP BY and a
// repeat of the first, and returns the span trees.
func runSQLTrace(t *testing.T) []byte {
	t.Helper()
	lake, selective := sqlTraceLake(t)
	var out bytes.Buffer
	for _, sql := range []string{selective, "select count(*), sum(bytes) from logs group by province", selective} {
		sp := lake.Tracer().Start("query.execute")
		res, cost, err := lake.QuerySpan(sql, sp)
		if err != nil {
			t.Fatal(err)
		}
		sp.End(cost)
		fmt.Fprintf(&out, "%s: %d row(s)\n%s", sql, len(res.Rows), sp.Tree())
	}
	return out.Bytes()
}

// TestSQLSpanGolden pins the SQL path's span tree: lakehouse.plan (files
// total, pruned, admitted; where the manifest came from), then
// lakehouse.scan with one tableobj.read per file, byte-identical to
// testdata/spans/sql.txt.
func TestSQLSpanGolden(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "spans", "sql.txt"), runSQLTrace)
}

// runGatewaySQLTrace posts a selective projection, a pushed-down
// GROUP BY and a statement naming an unknown column to POST
// /v1/sql?trace=1, and returns each status, row count, trace_id, error
// and span tree.
func runGatewaySQLTrace(t *testing.T) []byte {
	t.Helper()
	lake, selective := sqlTraceLake(t)
	acl := gateway.NewACL()
	acl.Grant("token", "analyst", gateway.PermQuery)
	srv := gateway.New(lake, acl)
	var out bytes.Buffer
	for _, sql := range []string{selective, "select count(*), sum(bytes) from logs group by province", "select ghost from logs"} {
		body, _ := json.Marshal(map[string]string{"query": sql})
		req := httptest.NewRequest("POST", "/v1/sql?trace=1", bytes.NewReader(body))
		req.Header.Set("Authorization", "Bearer token")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		var resp struct {
			Error   string     `json:"error"`
			Rows    [][]string `json:"rows"`
			TraceID int64      `json:"trace_id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		sp := lake.Tracer().Get(resp.TraceID)
		if sp == nil {
			t.Fatalf("%s: no trace %d", sql, resp.TraceID)
		}
		if resp.Error != "" {
			resp.Error = ", " + resp.Error
		}
		fmt.Fprintf(&out, "%s: %d, %d row(s), trace_id=%d%s\n%s", sql, rec.Code, len(resp.Rows), resp.TraceID, resp.Error, sp.Tree())
	}
	return out.Bytes()
}

// TestGatewaySQLSpanGolden pins a traced SQL request's span tree: a
// gateway.sql root over the query's lakehouse.plan and lakehouse.scan,
// its trace_id in the response, an error envelope's included,
// byte-identical to testdata/spans/gateway_sql.txt.
func TestGatewaySQLSpanGolden(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "spans", "gateway_sql.txt"), runGatewaySQLTrace)
}

// runFlushTrace loads a partitioned table in 12 rounds of 4
// one-partition files, tracing the MetaFresher flush that commits each
// round, and returns the span trees.
func runFlushTrace(t *testing.T) []byte {
	t.Helper()
	lake, err := streamlake.Open(streamlake.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	schema := streamlake.MustSchema("url:string", "start_time:int64", "province:string", "bytes:int64")
	if err := lake.CreateTable(streamlake.TableMeta{Name: "logs", Path: "/logs", Schema: schema, PartitionColumn: "province"}); err != nil {
		t.Fatal(err)
	}
	provinces := []string{"bj", "sh", "gz", "sz"}
	var out bytes.Buffer
	for round := 0; round < 12; round++ {
		var rows []streamlake.Row
		for i := 0; i < 20; i++ {
			ts := int64(round*100 + i)
			rows = append(rows, streamlake.Row{
				streamlake.StringValue(fmt.Sprintf("http://site/%d", i%7)), streamlake.IntValue(ts),
				streamlake.StringValue(provinces[i%len(provinces)]), streamlake.IntValue(ts % 13),
			})
		}
		if err := lake.Insert("logs", rows); err != nil {
			t.Fatal(err)
		}
		sp := lake.Tracer().Start("lakehouse.flush")
		cost, err := lake.Engine().FlushSpan("logs", sp)
		if err != nil {
			t.Fatal(err)
		}
		sp.End(cost)
		fmt.Fprintf(&out, "flush %d\n%s", round+1, sp.Tree())
	}
	return out.Bytes()
}

// TestCommitSpanGolden pins the commit path's span tree: lakehouse.flush
// (files) → tableobj.commit (adds, removes) → one tableobj.write per
// metadata file with its kind and bytes, byte-identical to
// testdata/spans/commit.txt.
func TestCommitSpanGolden(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "spans", "commit.txt"), runFlushTrace)
}

// runInsertTrace traces two inserts into a partitioned table, one of one
// partition and one of three, and returns the span trees.
func runInsertTrace(t *testing.T) []byte {
	t.Helper()
	lake, err := streamlake.Open(streamlake.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	schema := streamlake.MustSchema("url:string", "start_time:int64", "province:string", "bytes:int64")
	if err := lake.CreateTable(streamlake.TableMeta{Name: "logs", Path: "/logs", Schema: schema, PartitionColumn: "province"}); err != nil {
		t.Fatal(err)
	}
	provinces := []string{"bj", "sh", "gz"}
	rows := func(n, parts int) []streamlake.Row {
		var out []streamlake.Row
		for i := 0; i < n; i++ {
			out = append(out, streamlake.Row{
				streamlake.StringValue(fmt.Sprintf("http://site/%d", i%7)), streamlake.IntValue(int64(i)),
				streamlake.StringValue(provinces[i%parts]), streamlake.IntValue(int64(i % 13)),
			})
		}
		return out
	}
	var out bytes.Buffer
	traced := func(batch []streamlake.Row) {
		sp := lake.Tracer().Start("insert")
		cost, err := lake.Engine().InsertSpan("logs", batch, sp)
		if err != nil {
			t.Fatal(err)
		}
		sp.End(cost)
		fmt.Fprintf(&out, "insert: %d row(s)\n%s", len(batch), sp.Tree())
	}
	traced(rows(4, 1))
	traced(rows(6, 3))
	return out.Bytes()
}

// TestInsertSpanGolden pins the insert path's span tree: insert → one
// tableobj.write per partition file with its bytes, byte-identical to
// testdata/spans/insert.txt.
func TestInsertSpanGolden(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "spans", "insert.txt"), runInsertTrace)
}

// runCompactTrace loads a partitioned table in eight flushed inserts, so
// each partition holds eight small files, and traces a compaction of
// each partition into bins of at most 1 KB, and returns the span trees.
func runCompactTrace(t *testing.T) []byte {
	t.Helper()
	lake, err := streamlake.Open(streamlake.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	schema := streamlake.MustSchema("url:string", "start_time:int64", "province:string", "bytes:int64")
	if err := lake.CreateTable(streamlake.TableMeta{Name: "logs", Path: "/logs", Schema: schema, PartitionColumn: "province"}); err != nil {
		t.Fatal(err)
	}
	provinces := []string{"bj", "sh", "gz"}
	for b := 0; b < 8; b++ {
		var rows []streamlake.Row
		for i := 0; i < 15*(b+1); i++ {
			ts := int64(b*100 + i)
			rows = append(rows, streamlake.Row{
				streamlake.StringValue(fmt.Sprintf("http://site/%d", i%7)), streamlake.IntValue(ts),
				streamlake.StringValue(provinces[i%len(provinces)]), streamlake.IntValue(ts % 13),
			})
		}
		if err := lake.Insert("logs", rows); err != nil {
			t.Fatal(err)
		}
		if err := lake.FlushTable("logs"); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := lake.Engine().Table("logs")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for _, p := range provinces {
		sp := lake.Tracer().Start("lakebrain.compact")
		merged, cost, err := compact.CompactPartitionSpan(tbl, "province="+p, 1<<10, sp)
		if err != nil {
			t.Fatal(err)
		}
		sp.End(cost)
		fmt.Fprintf(&out, "compact province=%s: %d file(s) merged\n%s", p, merged, sp.Tree())
	}
	return out.Bytes()
}

// TestCompactSpanGolden pins the compaction path's span tree:
// lakebrain.compact (files, bins) → one tableobj.merge (files, rows) per
// bin over a tableobj.read per input file and the merged file's
// tableobj.write, then tableobj.commit → tableobj.write,
// byte-identical to testdata/spans/compact.txt.
func TestCompactSpanGolden(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "spans", "compact.txt"), runCompactTrace)
}

// runConvertTrace produces three rounds of 600 rows, two of them
// malformed, into a two-stream topic converted with delete_msg to a table
// partitioned by province, tracing the conversion pass after each round,
// and returns the span trees.
func runConvertTrace(t *testing.T) []byte {
	t.Helper()
	lake, err := streamlake.Open(streamlake.Config{PLogCapacity: 1 << 20, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	schema := streamlake.MustSchema("url:string", "start_time:int64", "province:string", "bytes:int64")
	if err := lake.CreateTopic(streamlake.TopicConfig{Name: "dpi", StreamNum: 2, Convert: streamlake.ConvertConfig{
		Enabled: true, TableName: "logs", TablePath: "/logs", TableSchema: schema,
		PartitionColumn: "province", SplitOffset: 500, DeleteMsg: true,
	}}); err != nil {
		t.Fatal(err)
	}
	p := lake.Producer("spans")
	provinces := []string{"bj", "sh", "gz"}
	var out bytes.Buffer
	for round := 0; round < 3; round++ {
		for i := 0; i < 600; i++ {
			ts := int64(round*1000 + i)
			value, err := streamlake.EncodeRow(schema, streamlake.Row{
				streamlake.StringValue(fmt.Sprintf("http://site/%d", i%7)), streamlake.IntValue(ts),
				streamlake.StringValue(provinces[i%len(provinces)]), streamlake.IntValue(ts % 13),
			})
			if err != nil {
				t.Fatal(err)
			}
			if i%300 == 299 {
				value = value[:len(value)-1]
			}
			if _, _, err := p.Send("dpi", []byte(fmt.Sprintf("k%d", i)), value); err != nil {
				t.Fatal(err)
			}
		}
		sp := lake.Tracer().Start("convert")
		results, cost, err := lake.RunConversionSpan(sp)
		if err != nil {
			t.Fatal(err)
		}
		sp.End(cost)
		fmt.Fprintf(&out, "conversion pass %d: %d topic(s)\n%s", round+1, len(results), sp.Tree())
	}
	return out.Bytes()
}

// TestConvertSpanGolden pins the conversion path's span tree: convert
// (topic, messages, malformed, files) → one streamobj.read per slice read
// over its plog.read, a tableobj.write {kind=data} per partition file,
// tableobj.commit → tableobj.write and a streamobj.reclaim per stream,
// byte-identical to testdata/spans/convert.txt.
func TestConvertSpanGolden(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "spans", "convert.txt"), runConvertTrace)
}

// runTieringTrace produces two rounds of 1,000 messages into a topic of
// 64 KiB logs and traces three tiering passes two hours apart: each pass
// moves the sealed logs the pass before it saw, and the first starts
// their idle clocks.
func runTieringTrace(t *testing.T) []byte {
	t.Helper()
	lake, err := streamlake.Open(streamlake.Config{PLogCapacity: 64 << 10, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := lake.CreateTopic(streamlake.TopicConfig{Name: "dpi", StreamNum: 1}); err != nil {
		t.Fatal(err)
	}
	p := lake.Producer("spans")
	agent := strings.Repeat("Mozilla/5.0 ", 12)
	var out bytes.Buffer
	for pass := 1; pass <= 3; pass++ {
		for i := 0; pass < 3 && i < 1000; i++ {
			value := fmt.Sprintf("http://site/%d?user=%04d&bytes=%d agent=%s", i%7, i%97, i%13, agent)
			if _, _, err := p.Send("dpi", []byte(fmt.Sprintf("k%d", i)), []byte(value)); err != nil {
				t.Fatal(err)
			}
		}
		sp := lake.Tracer().Start("tiering")
		migs, cost := lake.RunTiering(sp)
		sp.End(cost)
		fmt.Fprintf(&out, "tiering pass %d: %d move(s)\n%s", pass, len(migs), sp.Tree())
		lake.Clock().Advance(2 * time.Hour)
	}
	return out.Bytes()
}

// TestTieringSpanGolden pins the tiering path's span tree: one
// tiering.migrate per moved log (its log, raw and stored bytes) under
// the pass, byte-identical to testdata/spans/tiering.txt.
func TestTieringSpanGolden(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "spans", "tiering.txt"), runTieringTrace)
}
