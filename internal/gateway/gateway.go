// Package gateway implements StreamLake's data access layer (Section
// III): the protocol endpoint that translates external requests into
// internal operations, and the place where authentication and access
// control lists are enforced so that "only valid user requests are
// translated into internal requests". The reproduction exposes an HTTP
// API (the stdlib stand-in for the paper's iSCSI/NFS/SMB/S3 portfolio):
//
//	GET  /v1/topics                         list topics
//	POST /v1/topics/{topic}/messages        produce  {"key","value"} (base64 value)
//	GET  /v1/topics/{topic}/messages        consume  ?group=&max=
//	GET  /v1/tables                         list tables
//	GET  /v1/tables/{table}/snapshot        current snapshot summary
//	POST /v1/sql                            {"query": "select ..."}
//	GET  /v1/stats                          storage statistics
//	GET  /v1/cluster                        node membership and consensus state
//	POST /v1/cluster/join                   {"node": N} admit a node at runtime
//	POST /v1/cluster/remove                 {"node": N} drain and retire a node
//	GET  /v1/tenants                        tenant contracts and admission counters
//	GET  /metrics                           Prometheus text exposition
//	GET  /trace/{id}                        one recorded trace as JSON
//
// Every request must carry "Authorization: Bearer <token>"; tokens map
// to principals whose ACL lists the verbs they may use. Produce and SQL
// requests may add ?trace=1 to record a span tree of the request's path
// through the stack; the response — an error envelope included —
// then carries the trace_id to fetch it. A consume whose ?deadline_ms=
// runs out mid-poll answers 200 with the messages read so far; 503 means
// none were.
//
// Every error response — including the mux's own 404/405s — is a JSON
// envelope {"error": "..."}, so clients never have to sniff the body.
package gateway

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"streamlake"
	"streamlake/internal/cluster"
	"streamlake/internal/obs"
	"streamlake/internal/resil"
	"streamlake/internal/streamsvc"
	"streamlake/internal/tenant"
)

// Request-size limits: a single unauthenticated-sized request must not
// be able to allocate unbounded gateway memory.
const (
	// MaxProduceBody caps a produce request body (key + base64 value +
	// JSON framing).
	MaxProduceBody = 1 << 20 // 1 MiB
	// MaxSQLBody caps a SQL request body.
	MaxSQLBody = 256 << 10 // 256 KiB
	// MaxConsumeBatch caps the consume `max` query parameter.
	MaxConsumeBatch = 1000
)

// Permission is one grantable capability.
type Permission string

// The gateway's capability set.
const (
	PermProduce Permission = "produce"
	PermConsume Permission = "consume"
	PermQuery   Permission = "query"
	PermAdmin   Permission = "admin"
)

// Principal is an authenticated identity with its granted permissions.
// Tenant binds the principal to a tenant's QoS contract; empty means the
// principal's own name is the tenant it produces as.
type Principal struct {
	Name        string
	Tenant      string
	Permissions map[Permission]bool
}

// ACL maps bearer tokens to principals.
type ACL struct {
	mu     sync.RWMutex
	tokens map[string]*Principal
}

// NewACL builds an empty ACL.
func NewACL() *ACL { return &ACL{tokens: make(map[string]*Principal)} }

// Grant registers a token for a principal with the given permissions.
func (a *ACL) Grant(token, name string, perms ...Permission) {
	a.GrantTenant(token, name, "", perms...)
}

// GrantTenant registers a token for a principal bound to a tenant: the
// tenant's quotas, fair share, and shed priority govern the principal's
// produce traffic once the lake declares tenants. The principal is
// published complete: handlers read it with no lock once authenticated.
func (a *ACL) GrantTenant(token, name, ten string, perms ...Permission) {
	p := &Principal{Name: name, Tenant: ten, Permissions: make(map[Permission]bool, len(perms))}
	for _, perm := range perms {
		p.Permissions[perm] = true
	}
	a.mu.Lock()
	a.tokens[token] = p
	a.mu.Unlock()
}

// authenticate resolves a bearer token.
func (a *ACL) authenticate(r *http.Request) (*Principal, bool) {
	h := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if !strings.HasPrefix(h, prefix) {
		return nil, false
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	p, ok := a.tokens[strings.TrimPrefix(h, prefix)]
	return p, ok
}

// Server is the access-layer HTTP handler over one Lake.
type Server struct {
	lake *streamlake.Lake
	acl  *ACL
	mux  *http.ServeMux

	mu        sync.Mutex
	consumers map[consumerKey]*streamlake.Consumer
	producers map[producerKey]*streamlake.Producer
}

// The cached clients' identities: as structs, no string is built per
// request and ("a/b", "c") cannot collide with ("a", "b/c").
type (
	consumerKey struct{ group, topic string }
	producerKey struct{ name, tenant string }
)

// New builds a gateway server.
func New(lake *streamlake.Lake, acl *ACL) *Server {
	s := &Server{
		lake: lake, acl: acl, mux: http.NewServeMux(),
		consumers: map[consumerKey]*streamlake.Consumer{},
		producers: map[producerKey]*streamlake.Producer{},
	}
	s.mux.HandleFunc("GET /v1/topics", s.guard(PermAdmin, s.listTopics))
	s.mux.HandleFunc("POST /v1/topics/{topic}/messages", s.guard(PermProduce, s.produce))
	s.mux.HandleFunc("GET /v1/topics/{topic}/messages", s.guard(PermConsume, s.consume))
	s.mux.HandleFunc("GET /v1/tables", s.guard(PermAdmin, s.listTables))
	s.mux.HandleFunc("GET /v1/tables/{table}/snapshot", s.guard(PermQuery, s.snapshot))
	s.mux.HandleFunc("POST /v1/sql", s.guard(PermQuery, s.sql))
	s.mux.HandleFunc("GET /v1/stats", s.guard(PermAdmin, s.stats))
	s.mux.HandleFunc("GET /v1/cluster", s.guard(PermAdmin, s.cluster))
	s.mux.HandleFunc("POST /v1/cluster/join", s.guard(PermAdmin, s.clusterJoin))
	s.mux.HandleFunc("POST /v1/cluster/remove", s.guard(PermAdmin, s.clusterRemove))
	s.mux.HandleFunc("GET /v1/tenants", s.guard(PermAdmin, s.tenants))
	s.mux.HandleFunc("GET /metrics", s.guard(PermAdmin, s.metrics))
	s.mux.HandleFunc("GET /trace/{id}", s.guard(PermAdmin, s.trace))
	return s
}

// ServeHTTP implements http.Handler. Responses pass through the error
// envelope: any 4xx/5xx that is not already JSON (the mux's plain-text
// 404/405, MaxBytesReader's catch-all) is rewritten as {"error": ...}.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ew := &envelopeWriter{rw: w}
	s.mux.ServeHTTP(ew, r)
	ew.finish()
}

// envelopeWriter buffers non-JSON error responses so they can be
// re-encoded as the gateway's JSON envelope. Success responses and
// handler-written JSON errors stream through untouched.
type envelopeWriter struct {
	rw    http.ResponseWriter
	code  int
	wrap  bool // error response needing re-encoding
	wrote bool // WriteHeader already observed
	buf   bytes.Buffer
}

func (e *envelopeWriter) Header() http.Header { return e.rw.Header() }

func (e *envelopeWriter) WriteHeader(code int) {
	if e.wrote {
		return
	}
	e.wrote = true
	e.code = code
	if code >= 400 && !strings.HasPrefix(e.rw.Header().Get("Content-Type"), "application/json") {
		// Hold the header back: the body is rewritten in finish.
		e.wrap = true
		return
	}
	e.rw.WriteHeader(code)
}

func (e *envelopeWriter) Write(b []byte) (int, error) {
	if !e.wrote {
		e.WriteHeader(http.StatusOK)
	}
	if e.wrap {
		return e.buf.Write(b)
	}
	return e.rw.Write(b)
}

func (e *envelopeWriter) finish() {
	if !e.wrap {
		return
	}
	msg := strings.TrimSpace(e.buf.String())
	if msg == "" {
		msg = http.StatusText(e.code)
	}
	writeError(e.rw, e.code, errorBody{Error: msg})
}

// guard wraps a handler with authentication and the required permission.
func (s *Server) guard(perm Permission, h func(http.ResponseWriter, *http.Request, *Principal)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		p, ok := s.acl.authenticate(r)
		if !ok {
			httpError(w, http.StatusUnauthorized, "missing or invalid bearer token")
			return
		}
		if !p.Permissions[perm] && !p.Permissions[PermAdmin] {
			httpError(w, http.StatusForbidden, fmt.Sprintf("principal %s lacks %s", p.Name, perm))
			return
		}
		h(w, r, p)
	}
}

// query parses the query string, once per request (handlers pass it
// on) and not at all when there is none: a nil Values answers "".
func query(r *http.Request) url.Values {
	if r.URL.RawQuery == "" {
		return nil
	}
	return r.URL.Query()
}

// requestCtx builds the request's resilience context from the
// ?deadline_ms= query parameter: a virtual-time budget the produce or
// consume path charges its modelled costs against. No parameter means
// no deadline (nil context). ok=false means the parameter was invalid
// and the 400 is already written.
func (s *Server) requestCtx(w http.ResponseWriter, q url.Values) (rc *resil.Ctx, ok bool) {
	d := q.Get("deadline_ms")
	if d == "" {
		return nil, true
	}
	ms, err := strconv.ParseInt(d, 10, 64)
	if err != nil || ms <= 0 {
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("deadline_ms must be a positive integer, got %q", d))
		return nil, false
	}
	return resil.NewCtx(s.lake.Clock().Now(), time.Duration(ms)*time.Millisecond), true
}

// fail answers a failed send or poll. Tenant admission rejections —
// quota exceeded, shed under overload — are 429 and resilience failures
// — deadline exceeded, breaker open, retries exhausted — 503, both with
// Retry-After: the service is sick or out of time, not the request
// wrong, so the client's correct move is to back off and retry. A
// tenant the registry lost is 401; any other error keeps the caller's
// code. A traced request's span is marked with the error and its
// envelope carries the trace_id.
func (s *Server) fail(w http.ResponseWriter, err error, code int, sp *obs.Span) {
	sp.SetAttr("error", err.Error())
	wait := time.Duration(-1) // negative: no Retry-After
	var qe *tenant.QuotaError
	switch {
	case errors.As(err, &qe):
		code, wait = http.StatusTooManyRequests, qe.RetryAfter
	case errors.Is(err, tenant.ErrUnknown):
		code = http.StatusUnauthorized
	case errors.Is(err, resil.ErrBreakerOpen):
		// Hint the open breaker's remaining cooldown.
		code, wait = http.StatusServiceUnavailable, s.lake.Service().RetryAfter(s.lake.Clock().Now())
	case errors.Is(err, resil.ErrDeadlineExceeded), errors.Is(err, streamsvc.ErrRetriesExhausted):
		code, wait = http.StatusServiceUnavailable, 0
	}
	if wait >= 0 {
		// Retry-After is whole seconds; virtual cooldowns are sub-second, so
		// round up to the smallest honest hint.
		secs := max(1, (int64(wait)+int64(time.Second)-1)/int64(time.Second))
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	body := errorBody{Error: err.Error()}
	if sp != nil {
		body.TraceID = sp.ID
	}
	writeError(w, code, body)
}

// startTrace opens the root span of a request that asks for ?trace=1,
// and returns nil for any other.
func (s *Server) startTrace(q url.Values, name string) *obs.Span {
	if q.Get("trace") != "1" {
		return nil
	}
	return s.lake.Tracer().Start(name)
}

// tenantOf names the tenant a principal's produce traffic is bound to:
// its bound tenant, or its own name. The lake's registry decides what
// that runs as — unmetered while no tenant is declared — and a tenant it
// does not know is an authentication failure (401, already written when
// ok=false): the token maps to no contract.
func (s *Server) tenantOf(w http.ResponseWriter, p *Principal) (string, bool) {
	ten := p.Tenant
	if ten == "" {
		ten = p.Name
	}
	if _, err := s.lake.Tenants().Resolve(ten); err != nil {
		httpError(w, http.StatusUnauthorized,
			fmt.Sprintf("principal %s: unknown tenant %q", p.Name, ten))
		return "", false
	}
	return ten, true
}

// errorBody is the error envelope.
type errorBody struct {
	Error   string `json:"error"`
	TraceID int64  `json:"trace_id,omitempty"`
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeError(w, code, errorBody{Error: msg})
}

func writeError(w http.ResponseWriter, code int, body errorBody) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(body)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// bodyPool recycles request-body buffers; one that a large request grew
// past 64 KiB is dropped instead, so it does not stay resident.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// parseBody reads a request body of at most limit bytes into a pooled
// buffer and returns parse's reading of it. The buffer is recycled on
// return, so nothing parse returns may alias it. Oversized bodies report
// 413, unreadable ones and those parse refuses (its error is the
// message) 400; either way the response is already written (ok=false)
// and the caller just returns.
func parseBody[T any](w http.ResponseWriter, r *http.Request, limit int64, parse func([]byte) (T, error)) (v T, ok bool) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= 64<<10 {
			buf.Reset()
			bodyPool.Put(buf)
		}
	}()
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
		return v, false
	case err != nil:
		httpError(w, http.StatusBadRequest, "bad json: "+err.Error())
		return v, false
	}
	if v, err = parse(buf.Bytes()); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
	}
	return v, err == nil
}

// decodeAs is encoding/json's reading of a body as a T — its first JSON
// value, whatever follows — and the one definition of what a body means.
func decodeAs[T any](body []byte) (v T, err error) {
	if err = json.NewDecoder(bytes.NewReader(body)).Decode(&v); err != nil {
		err = errors.New("bad json: " + err.Error())
	}
	return v, err
}

// flatObject recognises the one shape every client of these endpoints
// sends: a JSON object, no whitespace, whose members are escape-free
// ASCII strings named by keys. It points vals[k] at the value of keys[k]
// inside body (the last, when a member repeats; nil when absent). For
// anything else it says false and diagnoses nothing: the caller gives
// the same bytes to encoding/json, which stays the one definition of
// what a body means (FuzzDecodeFlat holds the two equal). Bytes after
// the closing brace go unread, as json.Decoder leaves them.
func flatObject(body []byte, vals [][]byte, keys ...string) bool {
	if len(body) < 2 || body[0] != '{' {
		return false
	}
	if body[1] == '}' {
		return true
	}
	for i := 1; ; {
		key, j := flatString(body, i)
		if j == len(body) || body[j] != ':' {
			return false
		}
		val, j := flatString(body, j+1)
		k := 0
		for k < len(keys) && string(key) != keys[k] {
			k++
		}
		if j == len(body) || k == len(keys) {
			return false
		}
		vals[k] = val
		if body[j] != ',' {
			return body[j] == '}'
		}
		i = j + 1
	}
}

// flatString reads the escape-free ASCII string literal that opens at
// body[i]: its contents and the index after its closing quote, or, when
// there is none, len(body), where nothing follows.
func flatString(body []byte, i int) ([]byte, int) {
	if i < len(body) && body[i] == '"' {
		for j := i + 1; j < len(body) && body[j] != '\\' && body[j] >= 0x20 && body[j] < 0x80; j++ {
			if body[j] == '"' {
				return body[i+1 : j : j], j + 1
			}
		}
	}
	return nil, len(body)
}

func (s *Server) listTopics(w http.ResponseWriter, r *http.Request, _ *Principal) {
	writeJSON(w, map[string]any{"topics": s.lake.Service().Topics()})
}

// produceRequest is the produce body, as encoding/json reads it.
type produceRequest struct {
	Key   string `json:"key"`
	Value string `json:"value"` // base64
}

// Response fields are declared in the alphabetical order encoding/json
// gives map keys: each body is byte for byte what a map[string]any gave.
type (
	produceResponse struct {
		LatencyNs int64 `json:"latency_ns"`
		Offset    int64 `json:"offset"`
		Stream    int   `json:"stream"`
		TraceID   int64 `json:"trace_id,omitempty"`
	}
	consumedMessage struct {
		Key    string `json:"key"`
		Offset int64  `json:"offset"`
		Stream int    `json:"stream"`
		Value  []byte `json:"value"` // encoding/json base64s it, StdEncoding
	}
	consumeResponse struct {
		Messages []consumedMessage `json:"messages"`
	}
	sqlResponse struct {
		Columns   []string   `json:"columns"`
		LatencyNs int64      `json:"latency_ns"`
		Rows      [][]string `json:"rows"`
		TraceID   int64      `json:"trace_id,omitempty"`
	}
)

// record is a produce request's key and value, cut from one allocation.
type record struct{ key, value []byte }

// produceRecord reads a produce body into the record to append: a fresh
// allocation, as parseBody requires, and as it must be — streamobj keeps
// key and value by reference until the slice flushes.
func produceRecord(body []byte) (record, error) {
	var f [2][]byte
	if !flatObject(body, f[:], "key", "value") {
		req, err := decodeAs[produceRequest](body)
		if err != nil {
			return record{}, err
		}
		f[0], f[1] = []byte(req.Key), []byte(req.Value)
	}
	buf := make([]byte, len(f[0])+base64.StdEncoding.DecodedLen(len(f[1])))
	k := copy(buf, f[0])
	n, err := base64.StdEncoding.Decode(buf[k:], f[1])
	if err != nil {
		return record{}, errors.New("value must be base64")
	}
	return record{buf[:k:k], buf[k : k+n]}, nil
}

func (s *Server) produce(w http.ResponseWriter, r *http.Request, p *Principal) {
	topic := r.PathValue("topic")
	rec, ok := parseBody(w, r, MaxProduceBody, produceRecord)
	if !ok {
		return
	}
	q := query(r)
	rc, ok := s.requestCtx(w, q)
	if !ok {
		return
	}
	ten, ok := s.tenantOf(w, p)
	if !ok {
		return
	}
	// One long-lived producer per principal: its sequence numbers drive
	// the stream objects' idempotent dedup, so it must not be recreated
	// per request — not even when the first declared tenant turns
	// metering on, which the producer resolves per batch. Keyed by name
	// and tenant so a rebound principal gets a fresh producer under its
	// new contract.
	s.mu.Lock()
	pkey := producerKey{p.Name, ten}
	producer, ok := s.producers[pkey]
	if !ok {
		producer = s.lake.TenantProducer("gw/"+p.Name, ten)
		s.producers[pkey] = producer
	}
	s.mu.Unlock()
	sp := s.startTrace(q, "gateway.produce")
	sp.SetAttr("topic", topic)
	msg, cost, err := producer.SendSpanCtx(topic, rec.key, rec.value, sp, rc)
	sp.End(cost)
	if err != nil {
		// A failed request is the one most worth diagnosing: its span
		// closes with the cost so far, and the envelope names it.
		s.fail(w, err, http.StatusNotFound, sp)
		return
	}
	resp := produceResponse{LatencyNs: cost.Nanoseconds(), Offset: msg.Offset, Stream: msg.Stream}
	if sp != nil {
		resp.TraceID = sp.ID
	}
	writeJSON(w, resp)
}

func (s *Server) consume(w http.ResponseWriter, r *http.Request, p *Principal) {
	topic := r.PathValue("topic")
	q := query(r)
	group := q.Get("group")
	if group == "" {
		group = "gw/" + p.Name
	}
	max := 100
	if m := q.Get("max"); m != "" {
		v, err := strconv.Atoi(m)
		if err != nil || v <= 0 {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("max must be a positive integer, got %q", m))
			return
		}
		if v > MaxConsumeBatch {
			v = MaxConsumeBatch
		}
		max = v
	}
	rc, ok := s.requestCtx(w, q)
	if !ok {
		return
	}
	s.mu.Lock()
	key := consumerKey{group, topic}
	c, ok := s.consumers[key]
	if !ok {
		c = s.lake.Consumer(group)
		if err := c.Subscribe(topic); err != nil {
			s.mu.Unlock()
			httpError(w, http.StatusNotFound, err.Error())
			return
		}
		s.consumers[key] = c
	}
	s.mu.Unlock()
	msgs, _, err := c.PollSpanCtx(max, nil, rc)
	// A deadline that expires mid-poll keeps its partial batch: the
	// consumer's offsets have moved past those messages, so dropping them
	// here would lose them for the group. 503 only when nothing was read.
	if err != nil && !(len(msgs) > 0 && errors.Is(err, resil.ErrDeadlineExceeded)) {
		s.fail(w, err, http.StatusInternalServerError, nil)
		return
	}
	c.CommitOffsets()
	out := consumeResponse{Messages: make([]consumedMessage, len(msgs))}
	for i, m := range msgs {
		out.Messages[i] = consumedMessage{Key: string(m.Key), Offset: m.Offset, Stream: m.Stream, Value: m.Value}
		if m.Value == nil {
			out.Messages[i].Value = []byte{} // "", as ever: a nil []byte encodes as null
		}
	}
	writeJSON(w, out)
}

func (s *Server) listTables(w http.ResponseWriter, r *http.Request, _ *Principal) {
	writeJSON(w, map[string]any{"tables": s.lake.Catalog().List()})
}

func (s *Server) snapshot(w http.ResponseWriter, r *http.Request, _ *Principal) {
	table := r.PathValue("table")
	snap, err := s.lake.TableSnapshot(table)
	if err != nil {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, map[string]any{
		"id": snap.ID, "parent": snap.ParentID,
		"rows": snap.RowCount, "files": len(snap.Files),
		"commits": len(snap.CommitIDs),
	})
}

// sqlRequest is the query body, as encoding/json reads it.
type sqlRequest struct {
	Query string `json:"query"`
}

// sqlQuery reads a SQL body's query.
func sqlQuery(body []byte) (string, error) {
	var f [1][]byte
	if flatObject(body, f[:], "query") {
		return string(f[0]), nil
	}
	req, err := decodeAs[sqlRequest](body)
	return req.Query, err
}

func (s *Server) sql(w http.ResponseWriter, r *http.Request, _ *Principal) {
	stmt, ok := parseBody(w, r, MaxSQLBody, sqlQuery)
	if !ok {
		return
	}
	sp := s.startTrace(query(r), "gateway.sql")
	res, cost, err := s.lake.QuerySpan(stmt, sp)
	sp.End(cost)
	if err != nil {
		s.fail(w, err, http.StatusBadRequest, sp)
		return
	}
	resp := sqlResponse{Columns: res.Columns, LatencyNs: cost.Nanoseconds(), Rows: res.Rows}
	if sp != nil {
		resp.TraceID = sp.ID
	}
	writeJSON(w, resp)
}

func (s *Server) stats(w http.ResponseWriter, r *http.Request, _ *Principal) {
	st := s.lake.Stats()
	writeJSON(w, map[string]any{
		"topics": st.Topics, "stream_objects": st.StreamObjects,
		"table_files": st.TableFiles, "logical_bytes": st.LogicalBytes,
		"physical_bytes": st.PhysicalBytes,
	})
}

// cluster serves the membership and consensus snapshot; a one-node
// lake reports its one node.
func (s *Server) cluster(w http.ResponseWriter, r *http.Request, _ *Principal) {
	st := s.lake.Cluster().Status()
	nodes := make([]map[string]any, 0, len(st.Nodes))
	for _, n := range st.Nodes {
		nodes = append(nodes, map[string]any{
			"id": n.ID, "up": n.Up, "alive": n.Alive,
			"suspect": n.Suspect, "draining": n.Draining,
			"joining": n.Joining, "leaving": n.Leaving, "removed": n.Removed,
			"role": n.Role, "term": n.Term,
			"log_len": n.LogLen, "commit": n.Commit,
			"slices_owned": n.SlicesOwned, "backlog_bytes": n.BacklogBytes,
		})
	}
	writeJSON(w, map[string]any{
		"leader": st.Leader, "term": st.Term, "applied": st.Applied,
		"elections":       st.Stats.Elections,
		"commits":         st.Stats.Commits,
		"commit_fails":    st.Stats.CommitFails,
		"heartbeats_sent": st.Stats.HeartbeatsSent,
		"heartbeats_lost": st.Stats.HeartbeatsLost,
		"nodes_killed":    st.Stats.NodesKilled,
		"nodes_revived":   st.Stats.NodesRevived,
		"stale_marked":    st.Stats.StaleMarkedByte,
		"joins":           st.Stats.Joins,
		"removes":         st.Stats.Removes,
		"join_moved":      st.Stats.JoinMovedBytes,
		"evacuated":       st.Stats.EvacuatedBytes,
		"nodes":           nodes,
	})
}

// memberRequest is the body of a membership-change POST.
type memberRequest struct {
	Node int `json:"node"`
}

// memberError maps a membership-change failure onto the error envelope:
// invalid transitions (the id exists, the victim leads, the voter floor)
// are 409 Conflict, a metadata plane that cannot commit right now is 503
// Service Unavailable, anything else is a plain 400.
func memberError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, cluster.ErrNodeExists),
		errors.Is(err, cluster.ErrRemoveLeader),
		errors.Is(err, cluster.ErrTooFewVoters):
		httpError(w, http.StatusConflict, err.Error())
	case errors.Is(err, cluster.ErrNoLeader), errors.Is(err, cluster.ErrNoQuorum):
		httpError(w, http.StatusServiceUnavailable, err.Error())
	default:
		httpError(w, http.StatusBadRequest, err.Error())
	}
}

// clusterJoin admits a node into the cluster at runtime: learner
// catch-up, then a committed config entry, then the bounded arc
// migration. The response reports what the join actually moved.
func (s *Server) clusterJoin(w http.ResponseWriter, r *http.Request, _ *Principal) {
	cl := s.lake.Cluster()
	req, ok := parseBody(w, r, MaxSQLBody, decodeAs[memberRequest])
	if !ok {
		return
	}
	if err := cl.ProposeJoin(req.Node); err != nil {
		memberError(w, err)
		return
	}
	rep := cl.LastJoin()
	writeJSON(w, map[string]any{
		"node": rep.Node, "moved_bytes": rep.MovedBytes,
		"moved_slices": rep.MovedSlices, "bound_bytes": rep.BoundBytes,
		"skipped": rep.Skipped,
	})
}

// clusterRemove retires a node: drain, relocate, committed tombstone.
func (s *Server) clusterRemove(w http.ResponseWriter, r *http.Request, _ *Principal) {
	cl := s.lake.Cluster()
	req, ok := parseBody(w, r, MaxSQLBody, decodeAs[memberRequest])
	if !ok {
		return
	}
	if err := cl.ProposeRemove(req.Node); err != nil {
		memberError(w, err)
		return
	}
	writeJSON(w, map[string]any{"node": req.Node, "removed": true})
}

// tenants serves every tenant's QoS contract and admission counters:
// an empty list on a lake that declares none.
func (s *Server) tenants(w http.ResponseWriter, r *http.Request, _ *Principal) {
	out := make([]map[string]any, 0)
	for _, st := range s.lake.Tenants().Status() {
		out = append(out, map[string]any{
			"name": st.Name, "weight": st.Weight, "priority": st.Priority,
			"capacity_bytes": st.CapacityBytes, "iops": st.IOPS,
			"bandwidth_bps":    st.BandwidthBps,
			"admitted":         st.Admitted,
			"admitted_ops":     st.AdmittedOps,
			"admitted_bytes":   st.AdmittedBytes,
			"throttled":        st.Throttled,
			"capacity_rejects": st.CapacityRejects,
			"shed":             st.Shed,
			"refunded_ops":     st.RefundedOps,
			"refunded_bytes":   st.RefundedBytes,
			"stored_bytes":     st.StoredBytes,
			"wfq_delay_ns":     int64(st.WFQDelay),
		})
	}
	writeJSON(w, map[string]any{"tenants": out})
}

// metrics serves the Prometheus text exposition of every layer's
// counters, gauges, and virtual-time histograms.
func (s *Server) metrics(w http.ResponseWriter, r *http.Request, _ *Principal) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.lake.Obs().WriteProm(w)
}

// trace serves one recorded span tree as JSON.
func (s *Server) trace(w http.ResponseWriter, r *http.Request, _ *Principal) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "trace id must be an integer")
		return
	}
	sp := s.lake.Tracer().Get(id)
	if sp == nil {
		httpError(w, http.StatusNotFound, fmt.Sprintf("no trace %d", id))
		return
	}
	writeJSON(w, map[string]any{"id": sp.ID, "start_ns": int64(sp.Start), "root": sp.JSON()})
}
