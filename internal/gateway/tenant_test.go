package gateway

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"streamlake"
)

// TestShedSurfaces429: with a worker breaker open, a lower-priority
// tenant's produce is shed before it reaches storage — 429 with
// Retry-After — while the most-protected tier keeps the breaker's own
// 503 surface. Shedding by tier is what distinguishes overload (429 for
// whoever can be deferred) from outage (503 for everyone).
func TestShedSurfaces429(t *testing.T) {
	e := newEnv(t)
	if err := e.lake.CreateTopic(streamlake.TopicConfig{Name: "t", StreamNum: 1}); err != nil {
		t.Fatal(err)
	}
	partitionAllWorkers(e.lake)
	body := map[string]string{"key": "k", "value": "dg=="}

	// Two writer produces: the first exhausts its retry budget, the
	// second's first failure trips the breaker.
	for i := 0; i < 2; i++ {
		if resp, out := e.do(t, "POST", "/v1/topics/t/messages", "writer-token", body); resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("partitioned produce %d: %d (%v)", i, resp.StatusCode, out)
		}
	}

	resp, out := e.do(t, "POST", "/v1/topics/t/messages", "bronze-token", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("sheddable tenant under open breaker: %d (%v), want 429", resp.StatusCode, out)
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want whole seconds >= 1", resp.Header.Get("Retry-After"))
	}
	msg, _ := out["error"].(string)
	if !strings.Contains(msg, "shed") {
		t.Fatalf("shed error does not say so: %q", msg)
	}

	// The protected tier is never shed: it still gets the breaker's 503.
	resp, out = e.do(t, "POST", "/v1/topics/t/messages", "writer-token", body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("protected tenant: %d (%v), want 503", resp.StatusCode, out)
	}
	msg, _ = out["error"].(string)
	if !strings.Contains(msg, "circuit breaker open") {
		t.Fatalf("protected tenant error: %q", msg)
	}
}

// TestTenantsEndpoint: the admin surface reports every registered
// tenant, sorted, with its contract and live admission counters.
func TestTenantsEndpoint(t *testing.T) {
	e := newEnv(t)
	if err := e.lake.CreateTopic(streamlake.TopicConfig{Name: "t", StreamNum: 1}); err != nil {
		t.Fatal(err)
	}
	// One admitted produce and one 429 so the counters are non-trivial.
	if resp, out := e.do(t, "POST", "/v1/topics/t/messages", "writer-token",
		map[string]string{"key": "k", "value": "dg=="}); resp.StatusCode != http.StatusOK {
		t.Fatalf("produce: %d (%v)", resp.StatusCode, out)
	}
	over := strings.Repeat("eHh4", 1024)
	if resp, _ := e.do(t, "POST", "/v1/topics/t/messages", "meter-token",
		map[string]string{"key": "k", "value": over}); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota produce: %d, want 429", resp.StatusCode)
	}

	req, _ := http.NewRequest("GET", e.ts.URL+"/v1/tenants", nil)
	req.Header.Set("Authorization", "Bearer root-token")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tenants status = %d", resp.StatusCode)
	}
	var body struct {
		Tenants []map[string]any `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	rows := body.Tenants
	if len(rows) != 5 {
		t.Fatalf("got %d tenants, want 5", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1]["name"].(string) >= rows[i]["name"].(string) {
			t.Fatalf("tenants not sorted by name: %v", rows)
		}
	}
	byName := map[string]map[string]any{}
	for _, r := range rows {
		byName[r["name"].(string)] = r
	}
	if byName["writer"]["admitted"].(float64) < 1 {
		t.Fatalf("writer admitted = %v, want >= 1", byName["writer"]["admitted"])
	}
	if byName["meter"]["throttled"].(float64) < 1 {
		t.Fatalf("meter throttled = %v, want >= 1", byName["meter"]["throttled"])
	}
	if byName["meter"]["bandwidth_bps"].(float64) != 2048 {
		t.Fatalf("meter bandwidth_bps = %v", byName["meter"]["bandwidth_bps"])
	}
}

// TestFirstTenantTurnsMeteringOn: a lake that declares no tenant runs
// every principal unmetered — no 401, no tenant on the span, an empty
// admin list — and the first declared tenant turns metering on for the
// same server and the same producers: an unbound principal is then
// refused, a bound one is metered against its contract, and its
// sequence numbers carry on, so nothing it sends is mistaken for a
// retransmit.
func TestFirstTenantTurnsMeteringOn(t *testing.T) {
	lake, err := streamlake.Open(streamlake.Config{PLogCapacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := lake.CreateTopic(streamlake.TopicConfig{Name: "t", StreamNum: 1}); err != nil {
		t.Fatal(err)
	}
	acl := NewACL()
	acl.Grant("root-token", "root", PermAdmin)
	acl.Grant("stray-token", "stray", PermProduce)
	acl.GrantTenant("gold-token", "gold", "gold", PermProduce)
	ts := httptest.NewServer(New(lake, acl))
	t.Cleanup(ts.Close)
	e := &env{lake: lake, acl: acl, ts: ts}
	small := map[string]string{"key": "k", "value": "dg=="}

	rec := serve(ts.Config.Handler, "GET", "/v1/tenants", "root-token", nil)
	if rec.Code != http.StatusOK || rec.Body.String() != "{\"tenants\":[]}\n" {
		t.Fatalf("untenanted /v1/tenants: %d %q, want 200 {\"tenants\":[]}", rec.Code, rec.Body)
	}
	for _, token := range []string{"stray-token", "gold-token"} {
		resp, out := e.do(t, "POST", "/v1/topics/t/messages?trace=1", token, small)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("untenanted produce as %s: %d (%v)", token, resp.StatusCode, out)
		}
		if ten, ok := traceAttrs(t, e, out)["tenant"]; ok {
			t.Fatalf("untenanted produce as %s carries tenant=%v", token, ten)
		}
	}

	if err := lake.SetTenant(streamlake.TenantConfig{Name: "gold", BandwidthBps: 2048}); err != nil {
		t.Fatal(err)
	}
	if resp, out := e.do(t, "POST", "/v1/topics/t/messages", "stray-token", small); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unbound principal after the first tenant: %d (%v), want 401", resp.StatusCode, out)
	}
	resp, out := e.do(t, "POST", "/v1/topics/t/messages?trace=1", "gold-token", small)
	if resp.StatusCode != http.StatusOK || out["offset"] != float64(2) {
		t.Fatalf("gold produce after the first tenant: %d (%v), want 200 at offset 2", resp.StatusCode, out)
	}
	if ten := traceAttrs(t, e, out)["tenant"]; ten != "gold" {
		t.Fatalf("metered produce tenant attribute = %v, want gold", ten)
	}
	over := map[string]string{"key": "k", "value": strings.Repeat("eHh4", 1024)}
	if resp, out := e.do(t, "POST", "/v1/topics/t/messages", "gold-token", over); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("gold over quota: %d (%v), want 429", resp.StatusCode, out)
	}
	_, out = e.do(t, "GET", "/v1/tenants", "root-token", nil)
	rows, _ := out["tenants"].([]any)
	if len(rows) != 1 || rows[0].(map[string]any)["name"] != "gold" {
		t.Fatalf("/v1/tenants after the first tenant: %v, want gold alone", out)
	}
}

// traceAttrs fetches the trace a ?trace=1 produce response names and
// returns its root span's attributes.
func traceAttrs(t *testing.T, e *env, produced map[string]any) map[string]any {
	t.Helper()
	id, ok := produced["trace_id"].(float64)
	if !ok {
		t.Fatalf("no trace_id in %v", produced)
	}
	_, body := e.do(t, "GET", "/trace/"+strconv.FormatInt(int64(id), 10), "root-token", nil)
	root, _ := body["root"].(map[string]any)
	attrs, _ := root["attrs"].(map[string]any)
	return attrs
}

// TestGrantTenantPublishesWholePrincipal: handlers read a principal with
// no lock once authenticate has returned it, so a grant must publish it
// complete. "flip" is bound to the registered tenant "bronze" and is not
// itself a tenant: a request that caught the principal between its
// publication and its binding would run as tenant "flip" and be refused
// (401), and the race detector flags the unlocked write either way.
func TestGrantTenantPublishesWholePrincipal(t *testing.T) {
	e := newEnv(t)
	h := e.ts.Config.Handler
	if err := e.lake.CreateTopic(streamlake.TopicConfig{Name: "t", StreamNum: 1}); err != nil {
		t.Fatal(err)
	}
	e.acl.GrantTenant("flip-token", "flip", "bronze", PermProduce)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				e.acl.GrantTenant("flip-token", "flip", "bronze", PermProduce)
			}
		}
	}()
	body := []byte(`{"key":"k","value":"dg=="}`)
	for i := 0; i < 2000; i++ {
		if rec := serve(h, "POST", "/v1/topics/t/messages", "flip-token", body); rec.Code != http.StatusOK {
			t.Errorf("request %d during a re-grant: %d %s", i, rec.Code, rec.Body)
			break
		}
	}
	close(stop)
	<-done
}
