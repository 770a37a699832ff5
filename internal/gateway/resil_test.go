package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"streamlake"
)

// partitionAllWorkers cuts every produce link in both directions so no
// retry can land.
func partitionAllWorkers(lake *streamlake.Lake) {
	for i := 0; i < lake.Service().WorkerCount(); i++ {
		ep := fmt.Sprintf("worker/%d", i)
		lake.Net().Partition("client", ep)
		lake.Net().Partition(ep, "client")
	}
}

// delayAllWorkers makes every forward transfer cost d of virtual time.
func delayAllWorkers(lake *streamlake.Lake, d time.Duration) {
	for i := 0; i < lake.Service().WorkerCount(); i++ {
		lake.Net().SetDelay("client", fmt.Sprintf("worker/%d", i), d, 0)
	}
}

// TestDeadlineAndOverloadSurface: the ?deadline_ms= parameter and the
// 503 mapping. Invalid deadlines are the client's fault (400); blown
// deadlines and unreachable workers are the service's (503 +
// Retry-After), and the body is always the JSON error envelope.
func TestDeadlineAndOverloadSurface(t *testing.T) {
	produceBody := map[string]string{"key": "k", "value": "dg=="}
	cases := []struct {
		name       string
		setup      func(*streamlake.Lake)
		method     string
		path       string
		body       any
		wantCode   int
		wantRetry  bool   // Retry-After header must be present
		wantInBody string // substring of the error envelope
	}{
		{
			name:   "produce bad deadline_ms",
			method: "POST", path: "/v1/topics/t/messages?deadline_ms=abc",
			body: produceBody, wantCode: http.StatusBadRequest,
			wantInBody: "deadline_ms",
		},
		{
			name:   "produce negative deadline_ms",
			method: "POST", path: "/v1/topics/t/messages?deadline_ms=-5",
			body: produceBody, wantCode: http.StatusBadRequest,
			wantInBody: "deadline_ms",
		},
		{
			name:   "consume bad deadline_ms",
			method: "GET", path: "/v1/topics/t/messages?deadline_ms=zero",
			wantCode:   http.StatusBadRequest,
			wantInBody: "deadline_ms",
		},
		{
			name:   "produce within deadline",
			method: "POST", path: "/v1/topics/t/messages?deadline_ms=1000",
			body: produceBody, wantCode: http.StatusOK,
		},
		{
			name:   "consume within deadline",
			method: "GET", path: "/v1/topics/t/messages?deadline_ms=1000",
			wantCode: http.StatusOK,
		},
		{
			name:   "produce deadline exceeded",
			setup:  func(l *streamlake.Lake) { delayAllWorkers(l, 5*time.Millisecond) },
			method: "POST", path: "/v1/topics/t/messages?deadline_ms=1",
			body: produceBody, wantCode: http.StatusServiceUnavailable,
			wantRetry: true, wantInBody: "deadline exceeded",
		},
		{
			name:   "produce retries exhausted",
			setup:  partitionAllWorkers,
			method: "POST", path: "/v1/topics/t/messages",
			body: produceBody, wantCode: http.StatusServiceUnavailable,
			wantRetry: true, wantInBody: "retries exhausted",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t)
			if err := e.lake.CreateTopic(streamlake.TopicConfig{Name: "t", StreamNum: 1}); err != nil {
				t.Fatal(err)
			}
			if tc.setup != nil {
				tc.setup(e.lake)
			}
			token := "writer-token"
			if tc.method == "GET" {
				token = "reader-token"
			}
			resp, out := e.do(t, tc.method, tc.path, token, tc.body)
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("status: %d want %d (body %v)", resp.StatusCode, tc.wantCode, out)
			}
			if tc.wantRetry && resp.Header.Get("Retry-After") == "" {
				t.Fatal("503 without Retry-After")
			}
			if tc.wantInBody != "" {
				msg, _ := out["error"].(string)
				if !strings.Contains(msg, tc.wantInBody) {
					t.Fatalf("error %q does not mention %q", msg, tc.wantInBody)
				}
			}
			if resp.StatusCode >= 400 {
				if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
					t.Fatalf("error response is not the JSON envelope: %q", ct)
				}
			}
		})
	}
}

// TestBreakerOpenSurfaces503: once the worker's circuit breaker trips,
// the gateway sheds with 503 + Retry-After instead of burning retries;
// healing the partition and waiting out the cooldown restores 200s.
func TestBreakerOpenSurfaces503(t *testing.T) {
	e := newEnv(t)
	if err := e.lake.CreateTopic(streamlake.TopicConfig{Name: "t", StreamNum: 1}); err != nil {
		t.Fatal(err)
	}
	partitionAllWorkers(e.lake)
	body := map[string]string{"key": "k", "value": "dg=="}

	// First produce burns its full retry budget (4 failures, threshold
	// 5): retries exhausted. The next one's first failure trips the
	// breaker and the remaining attempts shed.
	resp, out := e.do(t, "POST", "/v1/topics/t/messages", "writer-token", body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("partitioned produce: %d (%v)", resp.StatusCode, out)
	}
	resp, out = e.do(t, "POST", "/v1/topics/t/messages", "writer-token", body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second produce: %d (%v)", resp.StatusCode, out)
	}
	msg, _ := out["error"].(string)
	if !strings.Contains(msg, "circuit breaker open") {
		t.Fatalf("expected a breaker shed, got %q", msg)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("Retry-After: %q want %q", resp.Header.Get("Retry-After"), "1")
	}

	// Heal, let the cooldown elapse, and the half-open probe succeeds.
	e.lake.Net().HealAll()
	e.lake.Clock().Advance(30 * time.Millisecond)
	resp, out = e.do(t, "POST", "/v1/topics/t/messages", "writer-token", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healed produce: %d (%v)", resp.StatusCode, out)
	}
	if out["offset"].(float64) != 0 {
		t.Fatalf("offset after recovery: %v", out["offset"])
	}
}

// TestConsumeDeadlineKeepsPartialBatch: a poll whose deadline expires
// mid-way has already advanced the cached consumer past the messages it
// read (PollSpanCtx keeps partial progress), so answering 503 and dropping
// them loses them for the group. The scenario needs device reads — the
// first slices of a stream longer than the 64-slice read cache — so that
// a 1 ms budget covers some of a 1000-message poll but not all of it.
// Whatever mix of 200s and 503s comes back, the offsets delivered must
// be gap-free from 0 to the end.
func TestConsumeDeadlineKeepsPartialBatch(t *testing.T) {
	e := newEnv(t)
	h := e.ts.Config.Handler
	if err := e.lake.CreateTopic(streamlake.TopicConfig{Name: "t", StreamNum: 1}); err != nil {
		t.Fatal(err)
	}
	const total = 20_000
	p := e.lake.Producer("filler")
	value := bytes.Repeat([]byte("x"), 3<<10)
	for i := 0; i < total; i++ {
		if _, _, err := p.Send("t", []byte("k"), value); err != nil {
			t.Fatal(err)
		}
	}
	next, partial, refused := int64(0), 0, 0
	poll := func(url string) int {
		rec := serve(h, "GET", url, "reader-token", nil)
		var out struct {
			Messages []struct{ Offset int64 }
		}
		switch rec.Code {
		case http.StatusOK:
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatal(err)
			}
		case http.StatusServiceUnavailable:
			if rec.Header().Get("Retry-After") == "" {
				t.Fatal("503 without Retry-After")
			}
			refused++
		default:
			t.Fatalf("%s: %d %s", url, rec.Code, rec.Body)
		}
		for _, m := range out.Messages {
			if m.Offset != next {
				t.Fatalf("%s: offset %d follows %d: %d acked messages lost to the group", url, m.Offset, next-1, m.Offset-next)
			}
			next++
		}
		return len(out.Messages)
	}
	for i := 0; i < 3; i++ {
		if n := poll("/v1/topics/t/messages?group=g&max=1000&deadline_ms=1"); n > 0 && n < 1000 {
			partial++
		}
	}
	for poll("/v1/topics/t/messages?group=g&max=1000") > 0 {
	}
	if next != total {
		t.Fatalf("group read %d of %d messages", next, total)
	}
	if partial == 0 {
		t.Fatalf("no poll was cut short by its deadline (%d refused): the scenario no longer reaches the partial-batch path", refused)
	}
}
