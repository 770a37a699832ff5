package gateway

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"streamlake"
)

// TestErrorEnvelope verifies that every 4xx/5xx the gateway emits —
// handler errors, auth failures, and the mux's own plain-text 404/405
// and the 413s from MaxBytesReader — arrives as {"error": "..."}.
func TestErrorEnvelope(t *testing.T) {
	e := newEnv(t)
	e.lake.CreateTopic(streamlake.TopicConfig{Name: "t", StreamNum: 1})
	big := strings.Repeat("x", MaxProduceBody+1024)

	// 3 KiB decoded: comfortably past the "meter" tenant's 2 KB/s
	// bandwidth quota (one second of burst), so its produce 429s.
	overQuota := strings.Repeat("eHh4", 1024)

	cases := []struct {
		name   string
		method string
		path   string
		token  string
		body   any
		code   int
		retry  bool // Retry-After header must be present
	}{
		{"no token", "GET", "/v1/stats", "", nil, http.StatusUnauthorized, false},
		{"wrong permission", "POST", "/v1/sql", "writer-token", map[string]string{"query": "select 1"}, http.StatusForbidden, false},
		{"unknown route", "GET", "/v1/nonexistent", "root-token", nil, http.StatusNotFound, false},
		{"method not allowed", "DELETE", "/v1/topics", "root-token", nil, http.StatusMethodNotAllowed, false},
		{"unknown topic", "POST", "/v1/topics/ghost/messages", "writer-token", map[string]string{"key": "k", "value": "dg=="}, http.StatusNotFound, false},
		{"bad json", "POST", "/v1/sql", "reader-token", "not json at all", http.StatusBadRequest, false},
		{"bad sql", "POST", "/v1/sql", "reader-token", map[string]string{"query": "drop everything"}, http.StatusBadRequest, false},
		{"oversized produce", "POST", "/v1/topics/t/messages", "writer-token", map[string]string{"key": "k", "value": big}, http.StatusRequestEntityTooLarge, false},
		{"bad trace id", "GET", "/trace/xyz", "root-token", nil, http.StatusBadRequest, false},
		{"missing trace", "GET", "/trace/999999", "root-token", nil, http.StatusNotFound, false},
		{"unknown tenant", "POST", "/v1/topics/t/messages", "ghost-token",
			map[string]string{"key": "k", "value": "dg=="}, http.StatusUnauthorized, false},
		{"quota exceeded", "POST", "/v1/topics/t/messages", "meter-token",
			map[string]string{"key": "k", "value": overQuota}, http.StatusTooManyRequests, true},
		{"tenants endpoint needs admin", "GET", "/v1/tenants", "writer-token", nil, http.StatusForbidden, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := e.do(t, tc.method, tc.path, tc.token, tc.body)
			if resp.StatusCode != tc.code {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.code)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Fatalf("Content-Type = %q, want application/json", ct)
			}
			msg, ok := body["error"].(string)
			if !ok || msg == "" {
				t.Fatalf("body = %v, want non-empty error envelope", body)
			}
			ra := resp.Header.Get("Retry-After")
			if tc.retry {
				secs, err := strconv.Atoi(ra)
				if err != nil || secs < 1 {
					t.Fatalf("Retry-After = %q, want whole seconds >= 1", ra)
				}
			} else if ra != "" {
				t.Fatalf("unexpected Retry-After %q on %s", ra, tc.name)
			}
		})
	}
}

// TestMetricsEndpoint checks that /metrics renders Prometheus text with
// series from several layers after a little traffic.
func TestMetricsEndpoint(t *testing.T) {
	e := newEnv(t)
	e.lake.CreateTopic(streamlake.TopicConfig{Name: "t", StreamNum: 1})
	for i := 0; i < 5; i++ {
		e.do(t, "POST", "/v1/topics/t/messages", "writer-token",
			map[string]string{"key": "k", "value": "aGVsbG8="})
	}
	e.do(t, "GET", "/v1/topics/t/messages?group=g", "reader-token", nil)

	req, _ := http.NewRequest("GET", e.ts.URL+"/metrics", nil)
	req.Header.Set("Authorization", "Bearer root-token")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	raw, _ := io.ReadAll(resp.Body)
	text := string(raw)
	// Series from distinct layers must all be present.
	for _, want := range []string{
		"pool_write_ops_total",              // pool
		"plog_append_seconds",               // plog
		"bus_bytes_total",                   // bus
		"streamobj_ack_seconds",             // streamobj
		"streamsvc_produced_messages_total", // streamsvc
		"streamsvc_consumer_lag",            // consumer gauge
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestTracedProduce drives a ?trace=1 produce and fetches its span tree,
// checking the trace crosses bus, streamobj, plog, and pool layers.
func TestTracedProduce(t *testing.T) {
	e := newEnv(t)
	e.lake.CreateTopic(streamlake.TopicConfig{Name: "t", StreamNum: 1})
	// Fill the slice buffer to one record short of the flush threshold so
	// the traced produce triggers the flush and the trace crosses every
	// layer down to the pool.
	p := e.lake.Producer("filler")
	for i := 0; i < 255; i++ {
		if _, _, err := p.Send("t", []byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	resp, body := e.do(t, "POST", "/v1/topics/t/messages?trace=1", "writer-token",
		map[string]string{"key": "k", "value": "aGVsbG8="})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("produce status = %d", resp.StatusCode)
	}
	id, ok := body["trace_id"].(float64)
	if !ok {
		t.Fatalf("no trace_id in %v", body)
	}
	req, _ := http.NewRequest("GET", e.ts.URL+"/trace/"+strconv.FormatInt(int64(id), 10), nil)
	req.Header.Set("Authorization", "Bearer root-token")
	tresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d", tresp.StatusCode)
	}
	raw, _ := io.ReadAll(tresp.Body)
	text := string(raw)
	for _, want := range []string{"gateway.produce", "bus.send", "streamobj.append", "slice.flush", "plog.append", "pool.write"} {
		if !strings.Contains(text, want) {
			t.Errorf("trace missing span %q in %s", want, text)
		}
	}
	var parsed struct {
		Root struct {
			DurNs int64 `json:"dur_ns"`
		} `json:"root"`
	}
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.Root.DurNs <= 0 {
		t.Errorf("root span duration = %d, want > 0", parsed.Root.DurNs)
	}
}

// TestTracedProduceFailure: the request one most wants to diagnose is
// the one that failed, so a ?trace=1 produce that errors still finishes
// its span (error attribute, the cost so far) and names it in the
// envelope. An unknown topic fails before any work; a blown deadline
// fails after the bus has charged for it.
func TestTracedProduceFailure(t *testing.T) {
	cases := []struct {
		name, path string
		setup      func(*streamlake.Lake)
		code       int
		wantErr    string
		wantCost   bool
	}{
		{name: "unknown topic", path: "/v1/topics/ghost/messages?trace=1",
			code: http.StatusNotFound, wantErr: "unknown topic"},
		{name: "deadline exceeded", path: "/v1/topics/t/messages?trace=1&deadline_ms=1",
			setup: func(l *streamlake.Lake) { delayAllWorkers(l, 5*time.Millisecond) },
			code:  http.StatusServiceUnavailable, wantErr: "deadline exceeded", wantCost: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t)
			e.lake.CreateTopic(streamlake.TopicConfig{Name: "t", StreamNum: 1})
			if tc.setup != nil {
				tc.setup(e.lake)
			}
			resp, body := e.do(t, "POST", tc.path, "writer-token", map[string]string{"key": "k", "value": "aGVsbG8="})
			if resp.StatusCode != tc.code {
				t.Fatalf("status = %d, want %d (%v)", resp.StatusCode, tc.code, body)
			}
			id, ok := body["trace_id"].(float64)
			if msg, _ := body["error"].(string); !ok || !strings.Contains(msg, tc.wantErr) {
				t.Fatalf("envelope = %v, want an error mentioning %q and a trace_id", body, tc.wantErr)
			}
			resp, body = e.do(t, "GET", "/trace/"+strconv.FormatInt(int64(id), 10), "root-token", nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("trace %v: status %d (%v)", id, resp.StatusCode, body)
			}
			root, _ := body["root"].(map[string]any)
			attrs, _ := root["attrs"].(map[string]any)
			if msg, _ := attrs["error"].(string); !strings.Contains(msg, tc.wantErr) {
				t.Fatalf("root span attrs = %v, want error mentioning %q", attrs, tc.wantErr)
			}
			if dur, _ := root["dur_ns"].(float64); tc.wantCost && dur <= 0 {
				t.Fatalf("root span dur_ns = %v: the span was never ended with the cost so far", root["dur_ns"])
			}
		})
	}
}
