package gateway

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"streamlake"
)

// serve drives the handler directly, the way lakebench does: no sockets.
func serve(h http.Handler, method, url, token string, body []byte) *httptest.ResponseRecorder {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		panic(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// FuzzDecodeFlat holds the flat-body recogniser equal to encoding/json,
// for the produce and the sql key sets. On every input it accepts,
// json.Decoder into the request struct must succeed with the same
// fields; on every input at all, the handlers' parse functions
// (recogniser, then fallback) must give what the encoding/json path
// called directly gives: the same record or query, or the same error.
func FuzzDecodeFlat(f *testing.F) {
	for _, seed := range []string{
		`{"key":"k1","value":"aGVsbG8="}`,
		`{"value":"aGVsbG8=","key":"k1"}` + "\n",
		`{"query":"select count(*) from kv"}`,
		`{}`, `{"key":"k"}`, `{"value":""}`, `{"key":"","value":""}`,
		`{"key":"k","value":"!!!"}`, `{"key":"k","value":"aGk"}`, `{"key":"k","value":"aGk=\n"}`,
		`{"key":"a\"b","value":"AA=="}`, `{"key":"a\\b"}`, `{"key":"\u00e9"}`, `{"key":"é"}`,
		`{"key":"\ud83d\ude00"}`, `{"key":"\ud83d"}`, `{"key":"\ude00\ud83d"}`, `{"key":"\u12"}`,
		"{\"key\":\"a\x00b\"}", "{\"key\":\"a\tb\"}", "{\"key\":\"a\x1fb\"}", "{\"key\":\"a\x20b\"}",
		"{\"key\":\"a\x7fb\"}", "{\"key\":\"a\x80b\"}", "{\"key\":\"\xff\xfe\"}", "{\"k\x80y\":\"a\"}",
		`{"key":"a","key":"b"}`, `{"key":"a","Key":"b"}`, `{"Key":"a"}`, `{"KEY":"a","VALUE":"AA=="}`,
		`{"key":"a","key":1}`, `{"key":"a","other":"b"}`, `{"other":{"key":"x"},"key":"a"}`,
		`{"key":"a"}trailing`, `{"key":"a"}}`, `{"key":"a"} {"key":"b"}`, `{"key":"a"},`,
		` {"key":"a"}`, "\n\t{\"key\":\"a\"}", `{ "key" : "a" , "value" : "AA==" }`, `{"key": "a"}`,
		`{"key":null}`, `{"key":null,"value":"AA=="}`, `{"key":1}`, `{"key":1.5e3}`, `{"key":true}`,
		`{"key":["a"]}`, `{"key":{"a":"b"}}`, `[{"key":"a"}]`, `"key"`, `null`, `1`, `true`,
		`{"key":"a",}`, `{,}`, `{"key"}`, `{"key":}`, `{"key":"a" "value":"b"}`, `{"key":"a":"b"}`,
		`{`, `{"`, `{"key`, `{"key"`, `{"key":`, `{"key":"`, `{"key":"a`, `{"key":"a"`, `{"key":"a",`,
		`["key":"a"}`, `x"key":"a"}`, ` "key":"a"}`, `{"key","a"}`, `{"key";"a"}`, `{]`, `{]}`, `{"key":"a"]`,
		``, ` `, `}`, `{"query":"select 'a<b' from t"}`, `{"query":"a","query":"b"}`, `{"QUERY":"x"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		orig := append([]byte(nil), body...)

		var want produceRequest
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		var kv [2][]byte
		if flatObject(body, kv[:], "key", "value") {
			if wantErr != nil {
				t.Fatalf("%q: flat, but encoding/json says %v", body, wantErr)
			}
			if string(kv[0]) != want.Key || string(kv[1]) != want.Value {
				t.Fatalf("%q: flat reads (%q, %q), encoding/json (%q, %q)", body, kv[0], kv[1], want.Key, want.Value)
			}
		}
		rec, err := produceRecord(body)
		if !bytes.Equal(body, orig) {
			t.Fatalf("%q: produceRecord wrote to the body", orig)
		}
		for i := range body { // the body goes back to the pool: the record must not care
			body[i] = 0xAA
		}
		wantValue, b64Err := base64.StdEncoding.DecodeString(want.Value)
		switch {
		case wantErr != nil:
			if err == nil || err.Error() != "bad json: "+wantErr.Error() {
				t.Fatalf("%q: got error %v, encoding/json says %v", orig, err, wantErr)
			}
		case b64Err != nil:
			if err == nil || err.Error() != "value must be base64" {
				t.Fatalf("%q: got error %v for a value that is not base64", orig, err)
			}
		case err != nil:
			t.Fatalf("%q: got error %v, want (%q, %q)", orig, err, want.Key, wantValue)
		case string(rec.key) != want.Key || !bytes.Equal(rec.value, wantValue):
			t.Fatalf("%q: got (%q, %q), want (%q, %q)", orig, rec.key, rec.value, want.Key, wantValue)
		}
		copy(body, orig)

		var wantSQL sqlRequest
		wantErr = json.NewDecoder(bytes.NewReader(body)).Decode(&wantSQL)
		var q [1][]byte
		if flatObject(body, q[:], "query") && (wantErr != nil || string(q[0]) != wantSQL.Query) {
			t.Fatalf("%q: flat reads %q, encoding/json %q, %v", body, q[0], wantSQL.Query, wantErr)
		}
		query, err := sqlQuery(body)
		switch {
		case wantErr != nil:
			if err == nil || err.Error() != "bad json: "+wantErr.Error() {
				t.Fatalf("%q: got error %v, encoding/json says %v", body, err, wantErr)
			}
		case err != nil || query != wantSQL.Query:
			t.Fatalf("%q: got (%q, %v), want %q", body, query, err, wantSQL.Query)
		}
	})
}

// TestFlatObjectTakesTheHotShapes: the differential fuzz proves the
// recogniser right; this proves it is used — the bodies clients really
// send (json.Marshal of a string map or of the request struct, with or
// without Encoder's newline) never reach the fallback.
func TestFlatObjectTakesTheHotShapes(t *testing.T) {
	val := base64.StdEncoding.EncodeToString([]byte{0xfb, 0xff, 0xfe, 0, 1})
	m, _ := json.Marshal(map[string]string{"key": "k123", "value": val})
	s, _ := json.Marshal(produceRequest{Key: "k123", Value: val})
	for _, body := range [][]byte{m, s, append(s, '\n')} {
		var kv [2][]byte
		if !flatObject(body, kv[:], "key", "value") || string(kv[0]) != "k123" || string(kv[1]) != val {
			t.Fatalf("%s: not flat, or misread as (%q, %q)", body, kv[0], kv[1])
		}
	}
	var q [1][]byte
	if body := []byte(`{"query":"select count(*) from kv"}`); !flatObject(body, q[:], "query") {
		t.Fatalf("%s: not flat", body)
	}
}

// TestResponsesByteIdentical pins every response body of the hot
// endpoints to the bytes the map[string]any handlers produced (recorded
// at the commit before the typed responses): field order, base64,
// HTML escaping, invalid UTF-8, empty and null values, and the error
// strings of both body-decoding paths.
func TestResponsesByteIdentical(t *testing.T) {
	e := newEnv(t)
	h := e.ts.Config.Handler
	if err := e.lake.CreateTopic(streamlake.TopicConfig{Name: "t", StreamNum: 1}); err != nil {
		t.Fatal(err)
	}
	schema := streamlake.MustSchema("name:string", "n:int64")
	if err := e.lake.CreateTable(streamlake.TableMeta{Name: "tb", Path: "/tb", Schema: schema}); err != nil {
		t.Fatal(err)
	}
	e.lake.Insert("tb", []streamlake.Row{
		{streamlake.StringValue("a<b"), streamlake.IntValue(1)},
		{streamlake.StringValue("b"), streamlake.IntValue(2)},
	})
	e.lake.FlushTable("tb")
	direct := e.lake.Producer("direct")
	const produceURL, consumeURL = "/v1/topics/t/messages", "/v1/topics/t/messages?group=g&max=10"
	steps := []struct {
		name, method, url, token, body string
		before                         func() // runs first: records no JSON body could carry
		code                           int
		want                           string
	}{
		{name: "produce", method: "POST", url: produceURL, token: "writer-token",
			body: `{"key":"k1","value":"aGVsbG8="}`,
			code: 200, want: `{"latency_ns":20089,"offset":0,"stream":0}`},
		{name: "produce traced", method: "POST", url: produceURL + "?trace=1", token: "writer-token",
			body: `{"key":"k2","value":"d29ybGQ="}`,
			code: 200, want: `{"latency_ns":20167,"offset":1,"stream":0,"trace_id":1}`},
		{name: "produce escaped (fallback)", method: "POST", url: produceURL, token: "writer-token",
			body: `{"key":"k\u00e9\n","value":"AA=="}` + "\n",
			code: 200, want: `{"latency_ns":20228,"offset":2,"stream":0}`},
		{name: "produce empty object", method: "POST", url: produceURL, token: "writer-token",
			body: `{}`,
			code: 200, want: `{"latency_ns":20269,"offset":3,"stream":0}`},
		{name: "consume", method: "GET", url: consumeURL, token: "reader-token",
			before: func() {
				direct.Send("t", []byte("<&\"\\\xff>"), []byte{0, 1, 2, 0xfe, 0xff})
				direct.Send("t", []byte("empty"), nil)
				direct.Send("t", nil, []byte{})
			},
			code: 200, want: `{"messages":[{"key":"k1","offset":0,"stream":0,"value":"aGVsbG8="},` +
				`{"key":"k2","offset":1,"stream":0,"value":"d29ybGQ="},` +
				`{"key":"ké\n","offset":2,"stream":0,"value":"AA=="},` +
				`{"key":"","offset":3,"stream":0,"value":""},` +
				`{"key":"\u003c\u0026\"\\\ufffd\u003e","offset":4,"stream":0,"value":"AAEC/v8="},` +
				`{"key":"empty","offset":5,"stream":0,"value":""},` +
				`{"key":"","offset":6,"stream":0,"value":""}]}`},
		{name: "consume nothing", method: "GET", url: consumeURL, token: "reader-token",
			code: 200, want: `{"messages":[]}`},
		{name: "sql count", method: "POST", url: "/v1/sql", token: "reader-token",
			body: `{"query":"select count(*) from tb"}`,
			code: 200, want: `{"columns":["count"],"latency_ns":290088,"rows":[["2"]]}`},
		{name: "sql rows", method: "POST", url: "/v1/sql", token: "reader-token",
			body: `{"query":"select name, n from tb"}`,
			code: 200, want: `{"columns":["name","n"],"latency_ns":210152,"rows":[["a\u003cb","1"],["b","2"]]}`},
		{name: "sql no rows", method: "POST", url: "/v1/sql", token: "reader-token",
			body: `{"query":"select name from tb where n > 5"}`,
			code: 200, want: `{"columns":["name"],"latency_ns":130001,"rows":null}`},
		{name: "sql group key selected", method: "POST", url: "/v1/sql", token: "reader-token",
			body: `{"query":"select count(*), name as k from tb group by name"}`,
			code: 200, want: `{"columns":["count","k"],"latency_ns":210152,"rows":[["1","a\u003cb"],["1","b"]]}`},
		{name: "not an object", method: "POST", url: "/v1/sql", token: "reader-token",
			body: `"not json at all"`,
			code: 400, want: `{"error":"bad json: json: cannot unmarshal string into Go value of type gateway.sqlRequest"}`},
		{name: "truncated", method: "POST", url: produceURL, token: "writer-token",
			body: `{"key":"k","value":"aGk`,
			code: 400, want: `{"error":"bad json: unexpected EOF"}`},
		{name: "empty body", method: "POST", url: produceURL, token: "writer-token",
			code: 400, want: `{"error":"bad json: EOF"}`},
		{name: "number for a string", method: "POST", url: produceURL, token: "writer-token",
			body: `{"key":1,"value":"aGk="}`,
			code: 400, want: `{"error":"bad json: json: cannot unmarshal number into Go struct field produceRequest.key of type string"}`},
		{name: "syntax", method: "POST", url: produceURL, token: "writer-token",
			body: `{"key":"k",}`,
			code: 400, want: `{"error":"bad json: invalid character '}' looking for beginning of object key string"}`},
		{name: "not base64", method: "POST", url: produceURL, token: "writer-token",
			body: `{"key":"k","value":"!!!"}`,
			code: 400, want: `{"error":"value must be base64"}`},
		{name: "unknown topic", method: "POST", url: "/v1/topics/ghost/messages", token: "writer-token",
			body: `{"key":"k","value":"aGk="}`,
			code: 404, want: `{"error":"streamsvc: unknown topic: ghost"}`},
		{name: "unknown topic consume", method: "GET", url: "/v1/topics/ghost/messages", token: "reader-token",
			code: 404, want: `{"error":"streamsvc: unknown topic: ghost"}`},
		{name: "bad deadline", method: "POST", url: produceURL + "?deadline_ms=abc", token: "writer-token",
			body: `{"key":"k","value":"aGk="}`,
			code: 400, want: `{"error":"deadline_ms must be a positive integer, got \"abc\""}`},
		{name: "bad max", method: "GET", url: "/v1/topics/t/messages?max=0", token: "reader-token",
			code: 400, want: `{"error":"max must be a positive integer, got \"0\""}`},
		{name: "oversized produce", method: "POST", url: produceURL, token: "writer-token",
			body: `{"key":"k","value":"` + strings.Repeat("QUFB", MaxProduceBody/4) + `"}`,
			code: 413, want: `{"error":"request body exceeds 1048576 bytes"}`},
		{name: "oversized sql", method: "POST", url: "/v1/sql", token: "reader-token",
			body: `{"query":"` + strings.Repeat("x", MaxSQLBody) + `"}`,
			code: 413, want: `{"error":"request body exceeds 262144 bytes"}`},
		{name: "bad sql", method: "POST", url: "/v1/sql", token: "reader-token",
			body: `{"query":"selec oops"}`,
			code: 400, want: `{"error":"query: expected select, got \"selec\""}`},
		{name: "unknown tenant", method: "POST", url: produceURL, token: "ghost-token",
			body: `{"key":"k","value":"aGk="}`,
			code: 401, want: `{"error":"principal ghost: unknown tenant \"ghost\""}`},
		{name: "over quota", method: "POST", url: produceURL, token: "meter-token",
			body: `{"key":"k","value":"` + strings.Repeat("eHh4", 1024) + `"}`,
			code: 429, want: `{"error":"tenant \"meter\": bandwidth quota exceeded, retry after 500.488281ms"}`},
		{name: "forbidden", method: "POST", url: "/v1/sql", token: "writer-token",
			body: `{"query":"select 1"}`,
			code: 403, want: `{"error":"principal writer lacks query"}`},
	}
	for _, st := range steps {
		if st.before != nil {
			st.before()
		}
		rec := serve(h, st.method, st.url, st.token, []byte(st.body))
		if got := rec.Body.String(); rec.Code != st.code || got != st.want+"\n" {
			t.Errorf("%s:\n got %d %q\nwant %d %q", st.name, rec.Code, got, st.code, st.want+"\n")
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", st.name, ct)
		}
	}
}

// TestProduceDoesNotAliasRequestBuffer: the stream object keeps a
// record's key and value by reference in its open buffer until the slice
// flushes, and the body they were read from is recycled for the next
// request. Produce twice, well short of a flush, with bodies of one
// length: were the record cut from the pooled buffer, the first message
// would read back as the second.
func TestProduceDoesNotAliasRequestBuffer(t *testing.T) {
	e := newEnv(t)
	h := e.ts.Config.Handler
	if err := e.lake.CreateTopic(streamlake.TopicConfig{Name: "t", StreamNum: 1}); err != nil {
		t.Fatal(err)
	}
	want := [][2]string{{"key-one", "payload number one"}, {"key-two", "payload number two"}, {"key-3\n", "escaped: fallback"}}
	for _, kv := range want {
		body, _ := json.Marshal(produceRequest{Key: kv[0], Value: base64.StdEncoding.EncodeToString([]byte(kv[1]))})
		if rec := serve(h, "POST", "/v1/topics/t/messages", "writer-token", body); rec.Code != http.StatusOK {
			t.Fatalf("produce %q: %d %s", kv[0], rec.Code, rec.Body)
		}
	}
	if flushed := e.lake.Stats().LogicalBytes; flushed != 0 {
		t.Fatalf("%d bytes flushed: the records are no longer held by reference", flushed)
	}
	rec := serve(h, "GET", "/v1/topics/t/messages?group=g", "reader-token", nil)
	var out struct {
		Messages []struct {
			Key   string
			Value []byte
		}
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || len(out.Messages) != len(want) {
		t.Fatalf("consume: %v, %d messages: %s", err, len(out.Messages), rec.Body)
	}
	for i, m := range out.Messages {
		if m.Key != want[i][0] || string(m.Value) != want[i][1] {
			t.Errorf("message %d read back as (%q, %q), produced as (%q, %q)", i, m.Key, m.Value, want[i][0], want[i][1])
		}
	}
}

// replay is a request and a response writer that can be served again
// and again, so a measurement sees the handler and not the client.
type replay struct {
	req    *http.Request
	body   bytes.Reader
	data   []byte
	header http.Header
	code   int
	out    bytes.Buffer
}

func newReplay(method, url, token string, data []byte) *replay {
	rp := &replay{data: data, header: http.Header{}}
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		panic(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	rp.req = req
	return rp
}

func (rp *replay) Read(p []byte) (int, error) { return rp.body.Read(p) }
func (rp *replay) Close() error               { return nil }
func (rp *replay) Header() http.Header        { return rp.header }
func (rp *replay) WriteHeader(code int)       { rp.code = code }
func (rp *replay) Write(p []byte) (int, error) {
	if rp.code == 0 {
		rp.code = http.StatusOK
	}
	return rp.out.Write(p)
}

func (rp *replay) serve(h http.Handler) {
	rp.body.Reset(rp.data)
	rp.req.Body = rp
	rp.code = 0
	rp.out.Reset()
	h.ServeHTTP(rp, rp.req)
}

// benchMessage is the i-th message of the shape lakebench's rest
// workload sends: a short key and 200 arbitrary bytes.
func benchMessage(i int) (key string, value []byte) {
	value = make([]byte, 200)
	for j := range value {
		value[j] = byte(i*131 + j*7)
	}
	return fmt.Sprintf("k%d", 100000+i), value
}

// benchBody is benchMessage(i) as that workload posts it: marshalled
// from a string map.
func benchBody(i int) []byte {
	key, value := benchMessage(i)
	body, _ := json.Marshal(map[string]string{"key": key, "value": base64.StdEncoding.EncodeToString(value)})
	return body
}

// TestProduceRequestAllocs pins what a produce request allocates from
// ServeHTTP down, data plane included (measured: 7, none of them the
// send's; the map-and-Decoder handlers it replaced: 31). The ceiling is 2
// above the measurement, so a stray per-request string, map or decoder
// fails here first. The count is the least of five windows, so what the
// runtime allocates for itself inside one is not the request's.
func TestProduceRequestAllocs(t *testing.T) {
	e := newEnv(t)
	h := e.ts.Config.Handler
	if err := e.lake.CreateTopic(streamlake.TopicConfig{Name: "t", StreamNum: 1}); err != nil {
		t.Fatal(err)
	}
	rp := newReplay("POST", "/v1/topics/t/messages", "writer-token", benchBody(0))
	allocs := testing.AllocsPerRun(2000, func() { rp.serve(h) })
	for w := 1; w < 5; w++ {
		allocs = min(allocs, testing.AllocsPerRun(2000, func() { rp.serve(h) }))
	}
	if rp.code != http.StatusOK {
		t.Fatalf("produce: %d %s", rp.code, rp.out.Bytes())
	}
	const ceiling = 9.0 // under -race too: the least window there is 9
	if allocs > ceiling {
		t.Fatalf("a produce request allocates %.0f times, ceiling %.0f", allocs, ceiling)
	}
	t.Logf("produce request: %.0f allocs", allocs)
}
