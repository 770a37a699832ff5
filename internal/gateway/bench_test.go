package gateway

import (
	"fmt"
	"net/http"
	"strconv"
	"testing"

	"streamlake"
)

// The request benchmarks send what lakebench's rest workload sends, the
// way it sends it — a fresh http.Request and httptest recorder per call,
// straight into ServeHTTP — so ns/op and allocs/op here are that
// workload's per-request cost. BenchmarkRequestBaseline is the same
// client against a handler that does nothing: subtract it to see the
// gateway and the data plane alone.

func benchEnv(b *testing.B) (*streamlake.Lake, http.Handler) {
	b.Helper()
	lake, err := streamlake.Open(streamlake.Config{Tenants: []streamlake.TenantConfig{{Name: "gold"}}})
	if err != nil {
		b.Fatal(err)
	}
	if err := lake.CreateTopic(streamlake.TopicConfig{Name: "t", StreamNum: 1}); err != nil {
		b.Fatal(err)
	}
	acl := NewACL()
	acl.GrantTenant("token-gold", "client-gold", "gold", PermProduce, PermConsume, PermQuery)
	return lake, New(lake, acl)
}

func BenchmarkRequestBaseline(b *testing.B) {
	body := benchBody(0)
	nop := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		serve(nop, "POST", "/v1/topics/t/messages", "token-gold", body)
	}
}

func BenchmarkProduceRequest(b *testing.B) {
	_, h := benchEnv(b)
	bodies := make([][]byte, 256)
	for i := range bodies {
		bodies[i] = benchBody(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := serve(h, "POST", "/v1/topics/t/messages", "token-gold", bodies[i%len(bodies)]); rec.Code != http.StatusOK {
			b.Fatalf("produce: %d %s", rec.Code, rec.Body)
		}
	}
}

// BenchmarkConsumeRequest reads 500-message responses. The stream holds
// 32 of them (inside the read cache: the handler is what is measured);
// when a group reaches the end, the next poll starts a new one.
func BenchmarkConsumeRequest(b *testing.B) {
	lake, h := benchEnv(b)
	const batch, perGroup = 500, 32
	p := lake.Producer("filler")
	for i := 0; i < batch*perGroup; i++ {
		key, value := benchMessage(i)
		if _, _, err := p.Send("t", []byte(key), value); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		url := "/v1/topics/t/messages?group=g" + strconv.Itoa(i/perGroup) + "&max=" + strconv.Itoa(batch)
		rec := serve(h, "GET", url, "token-gold", nil)
		if rec.Code != http.StatusOK || rec.Body.Len() < batch*200 {
			b.Fatalf("consume: %d, %d bytes", rec.Code, rec.Body.Len())
		}
	}
}

func BenchmarkSQLRequest(b *testing.B) {
	lake, h := benchEnv(b)
	if err := lake.CreateTable(streamlake.TableMeta{Name: "kv", Path: "/lake/kv", Schema: streamlake.MustSchema("k:int64", "v:string")}); err != nil {
		b.Fatal(err)
	}
	rows := make([]streamlake.Row, 2000)
	for i := range rows {
		rows[i] = streamlake.Row{streamlake.IntValue(int64(i)), streamlake.StringValue(fmt.Sprintf("%016x", i*2654435761))}
	}
	if err := lake.Insert("kv", rows); err != nil {
		b.Fatal(err)
	}
	if err := lake.FlushTable("kv"); err != nil {
		b.Fatal(err)
	}
	body := []byte(`{"query":"select count(*) from kv"}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := serve(h, "POST", "/v1/sql", "token-gold", body); rec.Code != http.StatusOK {
			b.Fatalf("sql: %d %s", rec.Code, rec.Body)
		}
	}
}
