package gateway

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"streamlake"
)

type env struct {
	lake *streamlake.Lake
	acl  *ACL
	ts   *httptest.Server
}

func newEnv(t *testing.T) *env {
	t.Helper()
	// The principals double as registered tenants (unlimited, most
	// protected priority — behavior identical to a tenant-less lake),
	// plus two probes: "meter", whose 2 KB/s bandwidth quota any
	// non-trivial produce blows immediately, and "bronze", a sheddable
	// lower-priority tier. "ghost-token" authenticates to a tenant the
	// registry does not know.
	lake, err := streamlake.Open(streamlake.Config{PLogCapacity: 1 << 20, Tenants: []streamlake.TenantConfig{
		{Name: "root"}, {Name: "writer"}, {Name: "reader"},
		{Name: "meter", BandwidthBps: 2048},
		{Name: "bronze", Priority: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	acl := NewACL()
	acl.Grant("root-token", "root", PermAdmin)
	acl.Grant("writer-token", "writer", PermProduce)
	acl.Grant("reader-token", "reader", PermConsume, PermQuery)
	acl.GrantTenant("meter-token", "meter", "meter", PermProduce)
	acl.GrantTenant("bronze-token", "bronze", "bronze", PermProduce)
	acl.GrantTenant("ghost-token", "ghost", "ghost", PermProduce)
	ts := httptest.NewServer(New(lake, acl))
	t.Cleanup(ts.Close)
	return &env{lake: lake, acl: acl, ts: ts}
}

func (e *env) do(t *testing.T, method, path, token string, body any) (*http.Response, map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		json.NewEncoder(&buf).Encode(body)
	}
	req, err := http.NewRequest(method, e.ts.URL+path, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

func TestAuthRequired(t *testing.T) {
	e := newEnv(t)
	resp, _ := e.do(t, "GET", "/v1/stats", "", nil)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("no token: %d", resp.StatusCode)
	}
	resp, _ = e.do(t, "GET", "/v1/stats", "wrong", nil)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bad token: %d", resp.StatusCode)
	}
	resp, _ = e.do(t, "GET", "/v1/stats", "root-token", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin stats: %d", resp.StatusCode)
	}
}

func TestACLEnforced(t *testing.T) {
	e := newEnv(t)
	e.lake.CreateTopic(streamlake.TopicConfig{Name: "t", StreamNum: 1})
	// A producer-only principal cannot query.
	resp, _ := e.do(t, "POST", "/v1/sql", "writer-token", map[string]string{"query": "select count(*) from x"})
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("writer ran sql: %d", resp.StatusCode)
	}
	// A reader cannot produce.
	resp, _ = e.do(t, "POST", "/v1/topics/t/messages", "reader-token", produceRequest{Key: "k", Value: "aGk="})
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("reader produced: %d", resp.StatusCode)
	}
	// Admin can do everything.
	resp, _ = e.do(t, "POST", "/v1/topics/t/messages", "root-token", produceRequest{Key: "k", Value: "aGk="})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin produce: %d", resp.StatusCode)
	}
	// Revocation takes effect immediately.
	e.acl.mu.Lock()
	delete(e.acl.tokens, "writer-token")
	e.acl.mu.Unlock()
	resp, _ = e.do(t, "POST", "/v1/topics/t/messages", "writer-token", produceRequest{Key: "k", Value: "aGk="})
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("revoked token still works: %d", resp.StatusCode)
	}
}

func TestProduceConsumeRoundTrip(t *testing.T) {
	e := newEnv(t)
	e.lake.CreateTopic(streamlake.TopicConfig{Name: "events", StreamNum: 2})
	for i := 0; i < 5; i++ {
		val := base64.StdEncoding.EncodeToString([]byte(fmt.Sprintf("payload-%d", i)))
		resp, body := e.do(t, "POST", "/v1/topics/events/messages", "writer-token",
			produceRequest{Key: fmt.Sprintf("k%d", i), Value: val})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("produce %d: %d %v", i, resp.StatusCode, body)
		}
	}
	resp, body := e.do(t, "GET", "/v1/topics/events/messages?group=g1&max=10", "reader-token", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("consume: %d", resp.StatusCode)
	}
	msgs := body["messages"].([]any)
	if len(msgs) != 5 {
		t.Fatalf("consumed %d messages", len(msgs))
	}
	first := msgs[0].(map[string]any)
	decoded, _ := base64.StdEncoding.DecodeString(first["value"].(string))
	if !bytes.HasPrefix(decoded, []byte("payload-")) {
		t.Fatalf("payload: %q", decoded)
	}
	// Offsets are committed per group: a second poll is empty.
	_, body = e.do(t, "GET", "/v1/topics/events/messages?group=g1", "reader-token", nil)
	if got := body["messages"].([]any); len(got) != 0 {
		t.Fatalf("second poll returned %d messages", len(got))
	}
}

func TestSQLAndSnapshotEndpoints(t *testing.T) {
	e := newEnv(t)
	schema := streamlake.MustSchema("name:string", "n:int64")
	e.lake.CreateTable(streamlake.TableMeta{Name: "t", Path: "/t", Schema: schema})
	e.lake.Insert("t", []streamlake.Row{
		{streamlake.StringValue("a"), streamlake.IntValue(1)},
		{streamlake.StringValue("b"), streamlake.IntValue(2)},
	})
	e.lake.FlushTable("t")

	resp, body := e.do(t, "POST", "/v1/sql", "reader-token", sqlRequest{Query: "select count(*) from t"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sql: %d %v", resp.StatusCode, body)
	}
	rows := body["rows"].([]any)
	if rows[0].([]any)[0].(string) != "2" {
		t.Fatalf("count: %v", rows)
	}
	// Malformed SQL is a client error, not a 500.
	resp, _ = e.do(t, "POST", "/v1/sql", "reader-token", sqlRequest{Query: "selec oops"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad sql: %d", resp.StatusCode)
	}

	resp, body = e.do(t, "GET", "/v1/tables/t/snapshot", "reader-token", nil)
	if resp.StatusCode != http.StatusOK || body["rows"].(float64) != 2 {
		t.Fatalf("snapshot: %d %v", resp.StatusCode, body)
	}
	resp, _ = e.do(t, "GET", "/v1/tables/ghost/snapshot", "reader-token", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost snapshot: %d", resp.StatusCode)
	}
}

func TestListEndpoints(t *testing.T) {
	e := newEnv(t)
	e.lake.CreateTopic(streamlake.TopicConfig{Name: "a", StreamNum: 1})
	schema := streamlake.MustSchema("x:int64")
	e.lake.CreateTable(streamlake.TableMeta{Name: "tb", Path: "/tb", Schema: schema})
	_, body := e.do(t, "GET", "/v1/topics", "root-token", nil)
	if topics := body["topics"].([]any); len(topics) != 1 {
		t.Fatalf("topics: %v", topics)
	}
	_, body = e.do(t, "GET", "/v1/tables", "root-token", nil)
	if tables := body["tables"].([]any); len(tables) != 1 || tables[0].(string) != "tb" {
		t.Fatalf("tables: %v", tables)
	}
}

func TestBadRequests(t *testing.T) {
	e := newEnv(t)
	e.lake.CreateTopic(streamlake.TopicConfig{Name: "t", StreamNum: 1})
	// Invalid base64.
	resp, _ := e.do(t, "POST", "/v1/topics/t/messages", "writer-token", produceRequest{Key: "k", Value: "!!!"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad base64: %d", resp.StatusCode)
	}
	// Unknown topic.
	resp, _ = e.do(t, "POST", "/v1/topics/ghost/messages", "writer-token", produceRequest{Key: "k", Value: "aGk="})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost topic: %d", resp.StatusCode)
	}
	resp, _ = e.do(t, "GET", "/v1/topics/ghost/messages", "reader-token", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost consume: %d", resp.StatusCode)
	}
}
