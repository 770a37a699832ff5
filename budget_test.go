package streamlake_test

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strconv"
	"testing"
	"time"

	"streamlake"
	"streamlake/internal/gateway"
	"streamlake/internal/lakebrain/compact"
	"streamlake/internal/lakehouse"
	"streamlake/internal/obs"
	"streamlake/internal/sim"
	"streamlake/internal/workload/dpi"
	"streamlake/internal/workload/tpch"
)

// The per-layer virtual budget of every lakebench workload, at 1/50 of
// its size: each operation runs under a root span, and every span tree is
// folded into one row per path — count, virtual self time and the bytes
// its spans report. A root's own self time is the part of the operation
// no layer below claims: the row is named "unattributed", and it is where
// a path still lacks spans. Virtual time is deterministic, so the budget
// is an exact diff: a change that moves a layer's cost moves its row.

// budget accumulates one workload run.
type budget struct {
	rows map[string]*budgetRow
	virt time.Duration // the cost of the operations lakebench counts
	ops  int           // sends, as lakebench counts ops
	user int64         // payload bytes the workload wrote
}

type budgetRow struct {
	count int
	self  time.Duration
	bytes int64
}

func newBudget() *budget { return &budget{rows: map[string]*budgetRow{}} }

// end closes a traced operation with its cost and folds its tree; counted
// adds the cost to the workload's virtual total.
func (b *budget) end(sp *obs.Span, cost time.Duration, counted bool) {
	sp.End(cost)
	if counted {
		b.virt += cost
	}
	j := sp.JSON()
	b.fold(j.Name, j, true)
}

// fold adds a span and its subtree under path.
func (b *budget) fold(path string, s obs.SpanJSON, root bool) {
	label := path
	if root {
		label += " (unattributed)"
	}
	r := b.rows[label]
	if r == nil {
		r = &budgetRow{}
		b.rows[label] = r
	}
	r.count++
	r.self += selfTime(s)
	if v, err := strconv.ParseInt(s.Attrs["bytes"], 10, 64); err == nil {
		r.bytes += v
	}
	for _, c := range s.Children {
		b.fold(path+" > "+c.Name, c, false)
	}
}

// selfTime is a span's duration less the part its children cover.
// Children may run in parallel (a replicated append's writes share one
// offset), so the covered time is the union of their intervals.
func selfTime(s obs.SpanJSON) time.Duration {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(s.Children))
	for _, c := range s.Children {
		lo, hi := max(c.OffNs, 0), min(c.OffNs+c.DurNs, s.DurNs)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, end int64
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		covered += v.hi - max(v.lo, end)
		end = v.hi
	}
	return time.Duration(s.DurNs - covered)
}

// render prints the end-to-end numbers lakebench reports and the rows.
func (b *budget) render(out *bytes.Buffer, seed uint64, lake *streamlake.Lake) {
	fmt.Fprintf(out, "seed %d: ops=%d virt_us_per_op=%.4f stored_bytes_per_user_byte=%.4f\n", seed, b.ops,
		float64(b.virt)/float64(time.Microsecond)/float64(b.ops),
		float64(lake.Stats().PhysicalBytes)/float64(b.user))
	paths := make([]string, 0, len(b.rows))
	for p := range b.rows {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		r := b.rows[p]
		fmt.Fprintf(out, "  %-72s n=%-6d self=%-14v bytes=%d\n", p, r.count, r.self, r.bytes)
	}
}

// budgetSeeds are the two seeds every budget golden holds.
var budgetSeeds = []uint64{1, 2}

func budgetOpen(t *testing.T, cfg streamlake.Config) *streamlake.Lake {
	t.Helper()
	lake, err := streamlake.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return lake
}

// budgetProduce sends n messages from next, each under a "produce" root.
func budgetProduce(t *testing.T, b *budget, lake *streamlake.Lake, p *streamlake.Producer, topic string, n int, next func(i int) ([]byte, []byte), before func(i int)) {
	t.Helper()
	for i := 0; i < n; i++ {
		if before != nil {
			before(i)
		}
		key, value := next(i)
		sp := lake.Tracer().Start("produce")
		_, cost, err := p.SendSpanCtx(topic, key, value, sp, nil)
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		b.end(sp, cost, true)
		b.ops++
		b.user += int64(len(key) + len(value))
	}
}

// budgetDrain polls a topic from offset zero in one group until it is
// caught up, each Poll(500) under a "poll" root, and returns the count.
func budgetDrain(t *testing.T, b *budget, lake *streamlake.Lake, topic, group string) int {
	t.Helper()
	c := lake.Consumer(group)
	if err := c.Subscribe(topic); err != nil {
		t.Fatal(err)
	}
	total := 0
	for {
		sp := lake.Tracer().Start("poll")
		msgs, cost, err := c.PollSpanCtx(500, sp, nil)
		if err != nil {
			t.Fatal(err)
		}
		b.end(sp, cost, true)
		if len(msgs) == 0 {
			return total
		}
		total += len(msgs)
	}
}

// dpiPackets returns a generator of DPI packets (~1.2 KB each).
func dpiPackets(t *testing.T, seed uint64) func(int) ([]byte, []byte) {
	gen := dpi.NewGenerator(seed)
	return func(int) ([]byte, []byte) {
		k, v, err := gen.Packet()
		if err != nil {
			t.Fatal(err)
		}
		return k, v
	}
}

// smallMessages returns a generator of 150..250 B messages.
func smallMessages(seed uint64) func(int) ([]byte, []byte) {
	rng := sim.NewRNG(seed)
	return func(int) ([]byte, []byte) {
		v := make([]byte, 150+rng.Intn(101))
		for j := range v {
			v[j] = byte(rng.Uint64())
		}
		return []byte(fmt.Sprintf("k%d", rng.Intn(1_000_000))), v
	}
}

var budgetTopic = streamlake.TopicConfig{Name: "t", StreamNum: 4}

// budgetIngest: 4,000 DPI packets into a 4-stream 3x-replicated topic on
// a one-node lake, then a catch-up drain.
func budgetIngest(t *testing.T, seed uint64, b *budget) *streamlake.Lake {
	lake := budgetOpen(t, streamlake.Config{Seed: seed})
	if err := lake.CreateTopic(budgetTopic); err != nil {
		t.Fatal(err)
	}
	budgetProduce(t, b, lake, lake.Producer("bench"), "t", 4000, dpiPackets(t, seed), nil)
	if got := budgetDrain(t, b, lake, "t", "bench"); got != 4000 {
		t.Fatalf("drained %d of 4000", got)
	}
	return lake
}

// budgetWarehouse: 4,000 TPC-H lineitem rows in two insert batches, one
// insert per shipmode, with a 2 MB cache; then selective and full-scan
// SQL. The ops are the queries.
func budgetWarehouse(t *testing.T, seed uint64, b *budget) *streamlake.Lake {
	lake := budgetOpen(t, streamlake.Config{Seed: seed, CacheMB: 2})
	meta := streamlake.TableMeta{Name: "lineitem", Path: "/lake/lineitem", Schema: tpch.LineitemSchema, PartitionColumn: "l_shipmode"}
	if err := lake.CreateTable(meta); err != nil {
		t.Fatal(err)
	}
	rows := tpch.Lineitem(4000, seed)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i][9].Int < rows[j][9].Int })
	for lo := 0; lo < len(rows); lo += 2000 {
		byMode := map[string][]streamlake.Row{}
		for _, r := range rows[lo : lo+2000] {
			byMode[r[12].Str] = append(byMode[r[12].Str], r)
		}
		modes := make([]string, 0, len(byMode))
		for m := range byMode {
			modes = append(modes, m)
		}
		sort.Strings(modes)
		for _, m := range modes {
			sp := lake.Tracer().Start("insert")
			cost, err := lake.Engine().Insert("lineitem", byMode[m])
			if err != nil {
				t.Fatal(err)
			}
			b.end(sp, cost, true)
			for _, r := range byMode[m] {
				for _, v := range r {
					b.user += int64(max(len(v.Str), 8))
				}
			}
		}
	}
	sp := lake.Tracer().Start("lakehouse.flush")
	cost, err := lake.Engine().FlushSpan("lineitem", sp)
	if err != nil {
		t.Fatal(err)
	}
	b.end(sp, cost, false)
	sqls := []string{"select l_shipmode, count(*), sum(l_quantity) from lineitem group by l_shipmode"}
	for _, q := range tpch.RandomQueries(8, seed+1) {
		sqls = append(sqls, tpch.QuerySQL("lineitem", q))
	}
	for _, sql := range sqls {
		budgetQuery(t, b, lake, sql)
		b.ops++
	}
	return lake
}

func budgetQuery(t *testing.T, b *budget, lake *streamlake.Lake, sql string) {
	t.Helper()
	sp := lake.Tracer().Start("query.execute")
	_, cost, err := lake.QuerySpan(sql, sp)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	b.end(sp, cost, true)
}

// budgetPipeline: 2,000 DPI packets into an EC(4,2) topic converted to a
// table with delete_msg, in four bursts, each followed by a conversion
// pass and the two DAU queries; then an update and a compaction of every
// province.
func budgetPipeline(t *testing.T, seed uint64, b *budget) *streamlake.Lake {
	lake := budgetOpen(t, streamlake.Config{Seed: seed})
	topic := streamlake.TopicConfig{
		Name: "t", StreamNum: 4, Redundancy: streamlake.EC(4, 2),
		Convert: streamlake.ConvertConfig{
			Enabled: true, TableName: "dpi", TablePath: "/lake/dpi",
			TableSchema: dpi.LabeledSchema, PartitionColumn: "province",
			SplitOffset: 500, DeleteMsg: true,
			Transform: func(_, value []byte) (streamlake.Row, bool) {
				row, err := streamlake.DecodeRow(value)
				if err != nil {
					return nil, false
				}
				norm, ok := dpi.Normalize(row)
				if !ok {
					return nil, false
				}
				return dpi.Label(norm), true
			},
		},
	}
	if err := lake.CreateTopic(topic); err != nil {
		t.Fatal(err)
	}
	p := lake.Producer("bench")
	next := dpiPackets(t, seed)
	for burst := 0; burst < 4; burst++ {
		budgetProduce(t, b, lake, p, "t", 500, next, nil)
		sp := lake.Tracer().Start("convert")
		_, cost, err := lake.RunConversion()
		if err != nil {
			t.Fatal(err)
		}
		b.end(sp, cost, true)
		for day := 0; day < 2; day++ {
			budgetQuery(t, b, lake, dpi.DAUQuery("dpi", day))
		}
	}
	lo, hi := streamlake.IntValue(dpi.BaseTime), streamlake.IntValue(dpi.BaseTime+2*86400/10-1)
	sp := lake.Tracer().Start("update")
	_, cost, err := lake.Engine().Update("dpi", []lakehouse.RangeFilter{{Column: "start_time", Lo: &lo, Hi: &hi}}, func(row streamlake.Row) streamlake.Row {
		out := append(streamlake.Row(nil), row...)
		out[3] = streamlake.IntValue(row[3].Int ^ 0x5555)
		return out
	})
	if err != nil {
		t.Fatal(err)
	}
	b.end(sp, cost, true)
	tbl, err := lake.Engine().Table("dpi")
	if err != nil {
		t.Fatal(err)
	}
	for _, prov := range dpi.Provinces {
		sp := lake.Tracer().Start("lakebrain.compact")
		_, cost, err := compact.CompactPartitionSpan(tbl, "province="+prov, 32<<20, sp)
		if err != nil {
			t.Fatal(err)
		}
		b.end(sp, cost, true)
	}
	return lake
}

// budgetRest: 2,000 single-message POSTs through the gateway from two
// tenants, each traced with ?trace=1; a GET drain; 4 SQL counts. The
// gateway reports no consume cost, so its polls count n only.
func budgetRest(t *testing.T, seed uint64, b *budget) *streamlake.Lake {
	tenants := []string{"gold", "bronze"}
	cfg := streamlake.Config{Seed: seed}
	for _, ten := range tenants {
		cfg.Tenants = append(cfg.Tenants, streamlake.TenantConfig{Name: ten})
	}
	lake := budgetOpen(t, cfg)
	if err := lake.CreateTopic(budgetTopic); err != nil {
		t.Fatal(err)
	}
	kv := streamlake.TableMeta{Name: "kv", Path: "/lake/kv", Schema: streamlake.MustSchema("k:int64", "v:string")}
	if err := lake.CreateTable(kv); err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(seed ^ 0x5eed)
	rows := make([]streamlake.Row, 40)
	for i := range rows {
		rows[i] = streamlake.Row{streamlake.IntValue(int64(i)), streamlake.StringValue(fmt.Sprintf("%016x", rng.Uint64()))}
	}
	if err := lake.Insert("kv", rows); err != nil {
		t.Fatal(err)
	}
	if err := lake.FlushTable("kv"); err != nil {
		t.Fatal(err)
	}
	acl := gateway.NewACL()
	for _, ten := range tenants {
		acl.GrantTenant("token-"+ten, "client-"+ten, ten, gateway.PermProduce, gateway.PermConsume, gateway.PermQuery)
	}
	srv := gateway.New(lake, acl)
	call := func(method, url, token string, body []byte) []byte {
		req := httptest.NewRequest(method, url, bytes.NewReader(body))
		req.Header.Set("Authorization", "Bearer "+token)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: %d %s", method, url, rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}
	next := smallMessages(seed)
	for i := 0; i < 2000; i++ {
		key, value := next(i)
		body, _ := json.Marshal(map[string]string{"key": string(key), "value": base64.StdEncoding.EncodeToString(value)})
		var resp struct {
			TraceID   int64 `json:"trace_id"`
			LatencyNs int64 `json:"latency_ns"`
		}
		if err := json.Unmarshal(call("POST", "/v1/topics/t/messages?trace=1", "token-"+tenants[i%2], body), &resp); err != nil {
			t.Fatal(err)
		}
		sp := lake.Tracer().Get(resp.TraceID)
		if sp == nil {
			t.Fatalf("produce %d: no trace %d", i, resp.TraceID)
		}
		b.end(sp, time.Duration(resp.LatencyNs), true)
		b.ops++
		b.user += int64(len(key) + len(value))
	}
	for {
		var resp struct{ Messages []json.RawMessage }
		if err := json.Unmarshal(call("GET", "/v1/topics/t/messages?group=bench&max=500", "token-gold", nil), &resp); err != nil {
			t.Fatal(err)
		}
		b.end(lake.Tracer().Start("gateway.consume"), 0, false)
		if len(resp.Messages) == 0 {
			break
		}
	}
	for i := 0; i < 4; i++ {
		var resp struct {
			LatencyNs int64 `json:"latency_ns"`
		}
		if err := json.Unmarshal(call("POST", "/v1/sql", "token-"+tenants[i%2], []byte(`{"query":"select count(*) from kv"}`)), &resp); err != nil {
			t.Fatal(err)
		}
		b.end(lake.Tracer().Start("gateway.sql"), time.Duration(resp.LatencyNs), true)
	}
	return lake
}

// budgetCluster: 2,400 small sends on a 3-node lake, the clock moving a
// millisecond every 64; a follower killed half way and revived at three
// quarters, each time waiting for the membership view; re-replication to
// completion; a drain.
func budgetCluster(t *testing.T, seed uint64, b *budget) *streamlake.Lake {
	lake := budgetOpen(t, streamlake.Config{Seed: seed, Nodes: 3})
	if err := lake.CreateTopic(budgetTopic); err != nil {
		t.Fatal(err)
	}
	cl := lake.Cluster()
	victim := (cl.Leader() + 1) % 3
	settle := func(alive bool) {
		for i := 0; cl.CurrentView().Alive[victim] != alive; i++ {
			if i == 400 {
				t.Fatalf("node %d never declared alive=%v", victim, alive)
			}
			lake.Clock().Advance(time.Millisecond)
			cl.Tick()
		}
	}
	const n = 2400
	budgetProduce(t, b, lake, lake.Producer("bench"), "t", n, smallMessages(seed), func(i int) {
		switch i {
		case n / 2:
			if err := cl.KillNode(victim); err != nil {
				t.Fatal(err)
			}
			settle(false)
		case n * 3 / 4:
			if err := cl.ReviveNode(victim); err != nil {
				t.Fatal(err)
			}
			settle(true)
		}
		if i%64 == 0 {
			lake.Clock().Advance(time.Millisecond)
			cl.Tick()
		}
	})
	if reb := cl.RunRebalance(2 * time.Second); !reb.Complete {
		t.Fatalf("rebalance left %d degraded logs", reb.RemainingLogs)
	}
	if got := budgetDrain(t, b, lake, "t", "bench"); got != n {
		t.Fatalf("drained %d of %d", got, n)
	}
	return lake
}

// TestBudgetGolden pins every workload's per-layer virtual budget, for
// two seeds, byte-identical to testdata/budget/<workload>.txt.
func TestBudgetGolden(t *testing.T) {
	for _, wl := range []struct {
		name string
		run  func(*testing.T, uint64, *budget) *streamlake.Lake
	}{
		{"ingest", budgetIngest},
		{"warehouse", budgetWarehouse},
		{"pipeline", budgetPipeline},
		{"rest", budgetRest},
		{"cluster", budgetCluster},
	} {
		t.Run(wl.name, func(t *testing.T) {
			checkGolden(t, filepath.Join("testdata", "budget", wl.name+".txt"), func(t *testing.T) []byte {
				var out bytes.Buffer
				for _, seed := range budgetSeeds {
					b := newBudget()
					lake := wl.run(t, seed, b)
					b.render(&out, seed, lake)
				}
				return out.Bytes()
			})
		})
	}
}
