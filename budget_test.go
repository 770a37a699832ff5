package streamlake_test

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
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
	mem  *allocMeter   // the Go allocations of each phase, when measured
}

type budgetRow struct {
	count int
	self  time.Duration
	bytes int64
}

func newBudget() *budget { return &budget{rows: map[string]*budgetRow{}} }

// phase starts the workload phase name (produce, drain, query, ...): the
// allocations from here to the next phase change count towards it. A
// phase may be entered many times; its counts add up. The phase "" is
// the harness's own work (generating inputs, folding traces), counted
// nowhere. Without a meter it does nothing.
func (b *budget) phase(name string) {
	if m := b.mem; m != nil && m.cur != name {
		runtime.ReadMemStats(&m.now)
		if r := m.rows[m.cur]; r != nil {
			r.mallocs += m.now.Mallocs - m.last.Mallocs
			r.bytes += m.now.TotalAlloc - m.last.TotalAlloc
		}
		if name != "" && m.rows[name] == nil {
			m.rows[name] = &allocRow{}
			m.order = append(m.order, name)
		}
		m.cur, m.last = name, m.now
	}
}

// allocMeter sums runtime.MemStats deltas per phase. The two MemStats
// live in the meter, so reading them allocates nothing.
type allocMeter struct {
	cur       string
	last, now runtime.MemStats
	rows      map[string]*allocRow
	order     []string // phases in the order first entered
}

type allocRow struct{ mallocs, bytes uint64 }

// end closes a traced operation with its cost and folds its tree; counted
// adds the cost to the workload's virtual total. The fold is the
// harness's, so the meter pauses for it.
func (b *budget) end(sp *obs.Span, cost time.Duration, counted bool) {
	if m := b.mem; m != nil {
		cur := m.cur
		b.phase("")
		defer b.phase(cur)
	}
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
// The messages are generated before the phase starts.
func budgetProduce(t *testing.T, b *budget, lake *streamlake.Lake, p *streamlake.Producer, topic string, n int, next func(i int) ([]byte, []byte), before func(i int)) {
	t.Helper()
	b.phase("")
	msgs := make([][2][]byte, n)
	for i := range msgs {
		msgs[i][0], msgs[i][1] = next(i)
	}
	b.phase("produce")
	for i, msg := range msgs {
		if before != nil {
			before(i)
		}
		key, value := msg[0], msg[1]
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
	b.phase("drain")
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
// insert per shipmode, with a 2 MB cache, the MetaFresher flushing after
// each insert, so the table's metadata is a run of commits over its
// checkpoints; then selective and full-scan SQL. The ops are the queries.
func budgetWarehouse(t *testing.T, seed uint64, b *budget) *streamlake.Lake {
	lake := budgetOpen(t, streamlake.Config{Seed: seed, CacheMB: 2})
	meta := streamlake.TableMeta{Name: "lineitem", Path: "/lake/lineitem", Schema: tpch.LineitemSchema, PartitionColumn: "l_shipmode"}
	if err := lake.CreateTable(meta); err != nil {
		t.Fatal(err)
	}
	rows := tpch.Lineitem(4000, seed)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i][9].Int < rows[j][9].Int })
	var batches [][]streamlake.Row // each half of the rows, one batch per shipmode
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
			batches = append(batches, byMode[m])
		}
	}
	sqls := []string{"select l_shipmode, count(*), sum(l_quantity) from lineitem group by l_shipmode"}
	for _, q := range tpch.RandomQueries(8, seed+1) {
		sqls = append(sqls, tpch.QuerySQL("lineitem", q))
	}
	b.phase("insert")
	for _, batch := range batches {
		sp := lake.Tracer().Start("insert")
		cost, err := lake.Engine().InsertSpan("lineitem", batch, sp)
		if err != nil {
			t.Fatal(err)
		}
		b.end(sp, cost, true)
		for _, r := range batch {
			for _, v := range r {
				b.user += int64(max(len(v.Str), 8))
			}
		}
		sp = lake.Tracer().Start("lakehouse.flush")
		if cost, err = lake.Engine().FlushSpan("lineitem", sp); err != nil {
			t.Fatal(err)
		}
		b.end(sp, cost, false)
	}
	for _, sql := range sqls {
		budgetQuery(t, b, lake, sql)
		b.ops++
	}
	return lake
}

func budgetQuery(t *testing.T, b *budget, lake *streamlake.Lake, sql string) {
	t.Helper()
	b.phase("query")
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
		b.phase("convert")
		sp := lake.Tracer().Start("convert")
		_, cost, err := lake.RunConversionSpan(sp)
		if err != nil {
			t.Fatal(err)
		}
		b.end(sp, cost, true)
		for day := 0; day < 2; day++ {
			budgetQuery(t, b, lake, dpi.DAUQuery("dpi", day))
		}
	}
	lo, hi := streamlake.IntValue(dpi.BaseTime), streamlake.IntValue(dpi.BaseTime+2*86400/10-1)
	b.phase("update")
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
	b.phase("compact")
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
	// call serves one request in phase and parses its response into v.
	// Building the request and parsing the response are the harness's.
	call := func(phase, method, url, token string, body []byte, v any) {
		b.phase("")
		req := httptest.NewRequest(method, url, bytes.NewReader(body))
		req.Header.Set("Authorization", "Bearer "+token)
		rec := httptest.NewRecorder()
		b.phase(phase)
		srv.ServeHTTP(rec, req)
		b.phase("")
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: %d %s", method, url, rec.Code, rec.Body.Bytes())
		}
		if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
			t.Fatal(err)
		}
		b.phase(phase)
	}
	next := smallMessages(seed)
	bodies := make([][]byte, 2000)
	for i := range bodies {
		key, value := next(i)
		bodies[i], _ = json.Marshal(map[string]string{"key": string(key), "value": base64.StdEncoding.EncodeToString(value)})
		b.ops++
		b.user += int64(len(key) + len(value))
	}
	for i, body := range bodies {
		var resp struct {
			TraceID   int64 `json:"trace_id"`
			LatencyNs int64 `json:"latency_ns"`
		}
		call("produce", "POST", "/v1/topics/t/messages?trace=1", "token-"+tenants[i%2], body, &resp)
		sp := lake.Tracer().Get(resp.TraceID)
		if sp == nil {
			t.Fatalf("produce %d: no trace %d", i, resp.TraceID)
		}
		b.end(sp, time.Duration(resp.LatencyNs), true)
	}
	for {
		var resp struct{ Messages []json.RawMessage }
		call("drain", "GET", "/v1/topics/t/messages?group=bench&max=500", "token-gold", nil, &resp)
		b.end(lake.Tracer().Start("gateway.consume"), 0, false)
		if len(resp.Messages) == 0 {
			break
		}
	}
	for i := 0; i < 4; i++ {
		var resp struct {
			LatencyNs int64 `json:"latency_ns"`
		}
		call("sql", "POST", "/v1/sql", "token-"+tenants[i%2], []byte(`{"query":"select count(*) from kv"}`), &resp)
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
	b.phase("rebalance")
	if reb := cl.RunRebalance(2 * time.Second); !reb.Complete {
		t.Fatalf("rebalance left %d degraded logs", reb.RemainingLogs)
	}
	if got := budgetDrain(t, b, lake, "t", "bench"); got != n {
		t.Fatalf("drained %d of %d", got, n)
	}
	return lake
}

// budgetWorkloads are the lakebench workloads at budget size.
var budgetWorkloads = []struct {
	name string
	run  func(*testing.T, uint64, *budget) *streamlake.Lake
}{
	{"ingest", budgetIngest},
	{"warehouse", budgetWarehouse},
	{"pipeline", budgetPipeline},
	{"rest", budgetRest},
	{"cluster", budgetCluster},
}

// TestBudgetGolden pins every workload's per-layer virtual budget, for
// two seeds, byte-identical to testdata/budget/<workload>.txt.
func TestBudgetGolden(t *testing.T) {
	for _, wl := range budgetWorkloads {
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

// allocRuns is how many measured runs measureAllocs takes the least of.
const allocRuns = 5

// measureAllocs runs the workload at the first budget seed once to warm
// the process (lazily built tables, pools, the compressor and encoder
// slots), then allocRuns times measured, and returns each phase's least
// mallocs and least bytes over the measured runs. Only lake calls count:
// what a run does before its first phase (opening the lake), generating
// a phase's inputs, building and parsing HTTP messages, and folding each
// trace run with the meter paused. A measured run has one P and no collection,
// so no pool is drained and no goroutine allocates between its phases;
// what still varies between runs (a map's table split falls with its
// random hash seed) only ever adds, and the least run drops it.
func measureAllocs(t *testing.T, run func(*testing.T, uint64, *budget) *streamlake.Lake) *allocMeter {
	run(t, budgetSeeds[0], newBudget())
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var least *allocMeter
	for i := 0; i < allocRuns; i++ {
		b := newBudget()
		b.mem = &allocMeter{rows: map[string]*allocRow{}}
		runtime.GC()
		run(t, budgetSeeds[0], b)
		b.phase("")
		if least == nil {
			least = b.mem
			continue
		}
		for p, r := range b.mem.rows {
			l := least.rows[p]
			l.mallocs, l.bytes = min(l.mallocs, r.mallocs), min(l.bytes, r.bytes)
		}
	}
	return least
}

// TestBudgetAllocs pins the Go allocations of every budget workload's
// phases, the least of allocRuns warm runs at the first seed, to
// testdata/budget/allocs.txt. A phase may move by its band: 0.1 % of
// its mallocs and 2 % of its bytes (floors of 4 mallocs and 4 KiB), the
// spread that repeated runs leave. A count above the band fails; so
// does one below it, since a saving is claimed by writing it into the
// golden (-update). Under the race detector or coverage the counts are
// the instrumentation's, so it skips.
func TestBudgetAllocs(t *testing.T) {
	if raceEnabled || testing.CoverMode() != "" {
		t.Skip("allocation counts are the instrumentation's under -race or -cover")
	}
	path := filepath.Join("testdata", "budget", "allocs.txt")
	var out bytes.Buffer
	got := map[string]allocRow{}
	for _, wl := range budgetWorkloads {
		m := measureAllocs(t, wl.run)
		for _, p := range m.order {
			r := *m.rows[p]
			got[wl.name+" "+p] = r
			fmt.Fprintf(&out, "%-10s %-10s mallocs=%-8d bytes=%d\n", wl.name, p, r.mallocs, r.bytes)
		}
	}
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (go test -run %s -update writes it)", err, t.Name())
	}
	want := map[string]allocRow{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var wl, phase string
		var r allocRow
		if _, err := fmt.Sscanf(line, "%s %s mallocs=%d bytes=%d", &wl, &phase, &r.mallocs, &r.bytes); err != nil {
			t.Fatalf("%s: %q: %v", path, line, err)
		}
		want[wl+" "+phase] = r
	}
	band := func(n uint64, div, floor uint64) uint64 { return max(n/div, floor) }
	check := func(key, what string, got, want, b uint64) {
		switch {
		case got > want+b:
			t.Errorf("%s %s %d, above the golden's %d by more than %d", key, what, got, want, b)
		case got+b < want:
			t.Errorf("%s %s %d, below the golden's %d by more than %d: write the saving into %s (-update)", key, what, got, want, b, path)
		}
	}
	for key, g := range got {
		w, ok := want[key]
		if !ok {
			t.Errorf("%s: phase %q is not in the golden (-update)", path, key)
			continue
		}
		check(key, "mallocs", g.mallocs, w.mallocs, band(w.mallocs, 1000, 4))
		check(key, "bytes", g.bytes, w.bytes, band(w.bytes, 50, 4096))
	}
	for key := range want {
		if _, ok := got[key]; !ok {
			t.Errorf("%s: phase %q no longer runs (-update)", path, key)
		}
	}
}
