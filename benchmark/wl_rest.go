package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"streamlake"
	"streamlake/internal/gateway"
	"streamlake/internal/sim"
)

// rest: the same kind of stream traffic as ingest, but one ~200 B
// message per request through the gateway's HTTP handler, as two
// unlimited tenants reached by bearer token, followed by a GET drain and
// a burst of SQL. Requests go straight to ServeHTTP with httptest
// recorders; there are no sockets. Gateway and tenant work (routing,
// auth, JSON, base64, admission) is most of a request here, which makes
// this the per-message-overhead counterpart of ingest.
type rest struct {
	pool   []message
	bodies [][]byte // produce request bodies, one per pool message
	rows   []streamlake.Row
}

const (
	restMessages = 100_000
	restQueries  = 200
	kvRows       = 2000
	kvTable      = "kv"
)

var (
	restTenants = []string{"gold", "bronze"}
	kvSchema    = streamlake.MustSchema("k:int64", "v:string")
	countSQL    = []byte(`{"query":"select count(*) from ` + kvTable + `"}`)
)

var kvMeta = streamlake.TableMeta{Name: kvTable, Path: "/lake/kv", Schema: kvSchema}

func (w *rest) config(e *env) streamlake.Config {
	cfg := streamlake.Config{Seed: e.seed}
	for _, t := range restTenants {
		cfg.Tenants = append(cfg.Tenants, streamlake.TenantConfig{Name: t})
	}
	return cfg
}

func (w *rest) open(e *env) (*streamlake.Lake, *gateway.Server, error) {
	lake, err := streamlake.Open(w.config(e))
	if err != nil {
		return nil, nil, err
	}
	if err := lake.CreateTopic(plainTopic); err != nil {
		return nil, nil, err
	}
	if err := lake.CreateTable(kvMeta); err != nil {
		return nil, nil, err
	}
	if err := lake.Insert(kvTable, w.rows); err != nil {
		return nil, nil, err
	}
	if err := lake.FlushTable(kvTable); err != nil {
		return nil, nil, err
	}
	acl := gateway.NewACL()
	for _, t := range restTenants {
		acl.GrantTenant("token-"+t, "client-"+t, t, gateway.PermProduce, gateway.PermConsume, gateway.PermQuery)
	}
	return lake, gateway.New(lake, acl), nil
}

func (w *rest) setup(e *env) error {
	w.pool = smallPool(e.seed)
	w.bodies = make([][]byte, len(w.pool))
	for i, m := range w.pool {
		body, err := json.Marshal(map[string]string{
			"key": string(m.key), "value": base64.StdEncoding.EncodeToString(m.value),
		})
		if err != nil {
			return err
		}
		w.bodies[i] = body
	}
	// The SQL table's strings come from the seed, so the virtual latency
	// of the count depends on the inputs like every other number; its row
	// count does not, or the query's wall time would vary with the seed.
	rng := sim.NewRNG(e.seed ^ 0x5eed)
	w.rows = make([]streamlake.Row, e.n(kvRows))
	for i := range w.rows {
		v := fmt.Sprintf("%016x%016x", rng.Uint64(), rng.Uint64())
		w.rows[i] = streamlake.Row{streamlake.IntValue(int64(i)), streamlake.StringValue(v[:8+rng.Intn(25)])}
	}
	_, _, err := w.open(e)
	return err
}

// call sends one request to the gateway handler, as a span called name,
// and times it.
func call(e *env, srv *gateway.Server, name, method, url, token string, body []byte) (*httptest.ResponseRecorder, time.Duration) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		panic(err) // fixed, well-formed URLs: only a bug can get here
	}
	req.Header.Set("Authorization", "Bearer "+token)
	rec := httptest.NewRecorder()
	id := e.tr.begin(name, e.root)
	t0 := time.Now()
	srv.ServeHTTP(rec, req)
	dt := time.Since(t0)
	e.tr.end(id)
	return rec, dt
}

// jsonInt reads the integer value of key from a flat JSON object without
// decoding the rest, keeping the client's own cost out of the numbers.
func jsonInt(body []byte, key string) (int64, bool) {
	i := bytes.Index(body, []byte(`"`+key+`":`))
	if i < 0 {
		return 0, false
	}
	i += len(key) + 3
	j := i
	for j < len(body) && (body[j] == '-' || (body[j] >= '0' && body[j] <= '9')) {
		j++
	}
	v, err := strconv.ParseInt(string(body[i:j]), 10, 64)
	return v, err == nil
}

func (w *rest) round(e *env) *roundResult {
	r := newRound()
	lake, srv, err := w.open(e)
	if err != nil {
		r.fail("open: %v", err)
		return r
	}
	r.lake = lake
	n := e.n(restMessages)
	led := newLedger(w.pool, 4, n)
	acks := make([]time.Duration, 0, n)
	gwCalls, gwErrors := 0, 0
	var user int64
	wall := r.phase(func() {
		for i := 0; i < n; i++ {
			idx := i % poolSize
			rec, _ := call(e, srv, spanGatewayProduce, "POST", "/v1/topics/"+benchTopic+"/messages", "token-"+restTenants[i%2], w.bodies[idx])
			r.attempted++
			gwCalls++
			if rec.Code != http.StatusOK {
				gwErrors++
				r.fail("produce %d: status %d: %s", i, rec.Code, rec.Body.Bytes())
				continue
			}
			body := rec.Body.Bytes()
			stream, ok1 := jsonInt(body, "stream")
			offset, ok2 := jsonInt(body, "offset")
			lat, ok3 := jsonInt(body, "latency_ns")
			if !ok1 || !ok2 || !ok3 {
				r.fail("produce %d: unreadable response %s", i, body)
				continue
			}
			led.ack(int(stream), offset, idx)
			acks = append(acks, time.Duration(lat))
			r.virt += time.Duration(lat)
			user += int64(len(w.pool[idx].key) + len(w.pool[idx].value))
		}
	})
	r.wall["produce_kmsgs_per_s"] = float64(n) / wall.Seconds() / 1e3
	r.exact["produce_ack_virt_mean_us"] = durMeanUS(acks)

	var drainWall time.Duration
	drainedMsgs, polls := 0, 0
	mark := markReads(lake)
	r.phase(func() {
		for {
			rec, dt := call(e, srv, spanGatewayConsume, "GET", "/v1/topics/"+benchTopic+"/messages?group=bench&max=500", "token-gold", nil)
			r.attempted++
			gwCalls++
			if rec.Code != http.StatusOK {
				gwErrors++
				r.fail("consume: status %d: %s", rec.Code, rec.Body.Bytes())
				return
			}
			var out struct {
				Messages []struct {
					Stream int
					Offset int64
					Value  string
				}
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				r.fail("consume: %v", err)
				return
			}
			if len(out.Messages) == 0 {
				return
			}
			polls++
			drainedMsgs += len(out.Messages)
			drainWall += dt
			for _, m := range out.Messages {
				value, err := base64.StdEncoding.DecodeString(m.Value)
				if err != nil {
					r.fail("consume: stream %d offset %d: %v", m.Stream, m.Offset, err)
					continue
				}
				led.consume(m.Stream, m.Offset, value)
			}
		}
	})
	r.counts.noteSliceReads(lake, mark)
	led.undelivered()
	r.absorb(led)
	r.wall["poll_kmsgs_per_s"] = float64(drainedMsgs) / drainWall.Seconds() / 1e3

	var sqlVirt []time.Duration
	wantRows := []byte(`"rows":[["` + strconv.Itoa(len(w.rows)) + `"]]`)
	queries := e.n(restQueries)
	r.phase(func() {
		for i := 0; i < queries; i++ {
			rec, dt := call(e, srv, spanGatewaySQL, "POST", "/v1/sql", "token-"+restTenants[i%2], countSQL)
			r.attempted++
			gwCalls++
			r.queries = append(r.queries, ms(dt))
			body := rec.Body.Bytes()
			lat, ok := jsonInt(body, "latency_ns")
			if rec.Code != http.StatusOK || !ok || !bytes.Contains(body, wantRows) {
				if rec.Code != http.StatusOK {
					gwErrors++
				}
				r.fail("sql %d: status %d: %s", i, rec.Code, body)
				continue
			}
			sqlVirt = append(sqlVirt, time.Duration(lat))
			r.virt += time.Duration(lat)
			r.counts.rowsMatched += int64(len(w.rows))
		}
	})
	r.exact["query_virt_mean_ms"] = durMeanUS(sqlVirt) / 1e3
	r.exact["stored_bytes_per_user_byte"] = float64(lake.Stats().PhysicalBytes) / float64(user)
	r.ops = n
	r.readCounts(lake)
	r.counts.userBytes = user
	r.counts.gatewayCalls = gwCalls
	r.counts.gatewayErrors = gwErrors
	scans := make([]scanCall, queries)
	for i := range scans {
		scans[i] = scanCall{sql: "select count(*) from " + kvTable, pushdown: true}
	}
	r.work = work{cfg: w.config(e), topic: plainTopic, pool: w.pool, sends: n, polls: polls,
		tenants: restTenants, table: kvTable, meta: kvMeta, scans: scans}
	return r
}
