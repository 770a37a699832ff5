package streamlake_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"streamlake"
	"streamlake/internal/tenant"
)

// runTenantWorkload drives a fixed two-tenant workload — an unlimited
// "gold" tenant and a "tin" tenant whose bandwidth quota the schedule
// deliberately exhausts — and returns the rendered /metrics text.
func runTenantWorkload(t *testing.T) []byte {
	t.Helper()
	lake, err := streamlake.Open(streamlake.Config{
		PLogCapacity: 1 << 20,
		Seed:         42,
		Tenants: []streamlake.TenantConfig{
			{Name: "gold", Weight: 3},
			{Name: "tin", Weight: 1, Priority: 1, BandwidthBps: 8 << 10},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := lake.CreateTopic(streamlake.TopicConfig{Name: "events", StreamNum: 2}); err != nil {
		t.Fatal(err)
	}
	gold := lake.TenantProducer("det-gold", "gold")
	tin := lake.TenantProducer("det-tin", "tin")
	big := bytes.Repeat([]byte("t"), 1024)
	var throttled int
	for i := 0; i < 300; i++ {
		if _, _, err := gold.Send("events", []byte(fmt.Sprintf("g%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			// 1 KiB against an 8 KB burst: the ninth send and everything
			// after is over quota — the throttle path must be exercised
			// and measured identically run to run.
			if _, _, err := tin.Send("events", []byte(fmt.Sprintf("t%d", i)), big); err != nil {
				if !errors.Is(err, tenant.ErrOverQuota) {
					t.Fatal(err)
				}
				throttled++
			}
		}
	}
	if throttled == 0 {
		t.Fatal("tin tenant never throttled — the workload is degenerate")
	}
	c := lake.Consumer("g")
	if err := c.Subscribe("events"); err != nil {
		t.Fatal(err)
	}
	for {
		msgs, _, err := c.Poll(128)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) == 0 {
			break
		}
	}
	var buf bytes.Buffer
	if err := lake.Obs().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMetricsDeterministicWithTenants: the tenant plane's instruments —
// per-tenant admission, throttle, and WFQ-delay series — measure
// virtual time and seeded decisions only, so the full exposition stays
// byte-identical run to run with quotas actively rejecting traffic.
func TestMetricsDeterministicWithTenants(t *testing.T) {
	a := runTenantWorkload(t)
	b := runTenantWorkload(t)
	if !bytes.Equal(a, b) {
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				lo := i - 100
				if lo < 0 {
					lo = 0
				}
				t.Fatalf("metrics diverge at byte %d:\nrun1: ...%s\nrun2: ...%s", i, a[lo:i+1], b[lo:i+1])
			}
		}
		t.Fatalf("metrics lengths differ: %d vs %d", len(a), len(b))
	}
	text := string(a)
	for _, want := range []string{
		`tenant_admitted_total{tenant="gold"}`,
		`tenant_admitted_total{tenant="tin"}`,
		`tenant_throttled_total{tenant="tin"}`,
		`tenant_stored_bytes{tenant="gold"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestTenantedProduceAllocs: a tenant-bound produce — resolution,
// quota admission, weighted-fair scheduling, capacity charging and the
// tenant's instruments — stays within the allocation budget. That quotas
// bite with no metrics registry attached is the tenant package's own
// concern (tenant.TestAdmitChargesBothBucketsOrNeither builds its
// registry without one).
func TestTenantedProduceAllocs(t *testing.T) {
	lake, err := streamlake.Open(streamlake.Config{
		PLogCapacity: 1 << 20,
		Seed:         7,
		Tenants:      []streamlake.TenantConfig{{Name: "gold"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := lake.CreateTopic(streamlake.TopicConfig{Name: "events", StreamNum: 2}); err != nil {
		t.Fatal(err)
	}
	gold := lake.TenantProducer("o-gold", "gold")
	val := []byte("payload")
	var i int
	allocs := testing.AllocsPerRun(500, func() {
		i++
		if _, _, err := gold.Send("events", []byte(fmt.Sprintf("k%06d", i)), val); err != nil {
			t.Fatal(err)
		}
	})
	// gateway.TestProduceRequestAllocs pins a produce request at <=12
	// allocs from ServeHTTP down; this gets generous headroom for the
	// runtime and the key Sprintf above, not a license for instrument
	// allocations.
	if allocs > 96 {
		t.Fatalf("tenanted produce = %.0f allocs/op, ceiling 96", allocs)
	}
	if st, ok := lake.Tenants().StatsOf("gold"); !ok || st.Admitted == 0 {
		t.Fatalf("gold sends were not metered: %+v", st)
	}
}
