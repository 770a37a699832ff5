package tenant

import (
	"errors"
	"testing"
	"time"
)

func mustRegistry(t *testing.T, cfgs ...Config) *Registry {
	t.Helper()
	r, err := NewRegistry(cfgs)
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	return r
}

func TestNewRegistryRejectsDuplicatesAndEmptyNames(t *testing.T) {
	if _, err := NewRegistry([]Config{{Name: "a"}, {Name: "a"}}); err == nil {
		t.Fatal("duplicate tenant accepted")
	}
	if _, err := NewRegistry([]Config{{Name: ""}}); err == nil {
		t.Fatal("empty tenant name accepted")
	}
}

func TestAdmitChargesBothBucketsOrNeither(t *testing.T) {
	r := mustRegistry(t, Config{Name: "a", IOPS: 10, BandwidthBps: 1000})

	// Buckets start full: 10 ops / 1000 bytes available at t=0.
	if err := r.Admit("a", 0, 5, 400); err != nil {
		t.Fatalf("first admit: %v", err)
	}
	// 5 ops left but only 600 bytes: a 5-op/700-byte batch must fail on
	// bandwidth and leave the IOPS bucket untouched.
	err := r.Admit("a", 0, 5, 700)
	if !errors.Is(err, ErrOverQuota) {
		t.Fatalf("want ErrOverQuota, got %v", err)
	}
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Kind != KindBandwidth {
		t.Fatalf("want bandwidth QuotaError, got %#v", err)
	}
	if qe.RetryAfter <= 0 {
		t.Fatalf("want positive RetryAfter, got %v", qe.RetryAfter)
	}
	// The 5 IOPS tokens were refunded: a 5-op/600-byte batch still fits.
	if err := r.Admit("a", 0, 5, 600); err != nil {
		t.Fatalf("post-reject admit: %v", err)
	}
	st, _ := r.StatsOf("a")
	if st.Admitted != 2 || st.Throttled != 1 {
		t.Fatalf("stats = %+v, want Admitted 2 Throttled 1", st)
	}
}

func TestBucketRefillsWithVirtualTimeAndCapsBurst(t *testing.T) {
	r := mustRegistry(t, Config{Name: "a", BandwidthBps: 1000})
	if err := r.Admit("a", 0, 1, 1000); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := r.Admit("a", 0, 1, 1000); err == nil {
		t.Fatal("empty bucket admitted")
	}
	// Half a virtual second refills 500 bytes.
	if err := r.Admit("a", 500*time.Millisecond, 1, 500); err != nil {
		t.Fatalf("after refill: %v", err)
	}
	// Ten idle virtual seconds must not bank more than one second's burst.
	if err := r.Admit("a", 11*time.Second, 1, 1001); err == nil {
		t.Fatal("burst cap exceeded: admitted more than one second of tokens")
	}
	if err := r.Admit("a", 11*time.Second, 1, 1000); err != nil {
		t.Fatalf("one-second burst rejected: %v", err)
	}
}

func TestAdmitExemptionsAndUnknown(t *testing.T) {
	r := mustRegistry(t, Config{Name: "a", IOPS: 1})
	// The system identity "" is always exempt.
	for i := 0; i < 100; i++ {
		if err := r.Admit("", 0, 10, 1<<20); err != nil {
			t.Fatalf("system identity throttled: %v", err)
		}
	}
	if err := r.Admit("ghost", 0, 1, 1); !errors.Is(err, ErrUnknown) {
		t.Fatalf("want ErrUnknown, got %v", err)
	}
	// Zero-valued quotas are unlimited.
	r2 := mustRegistry(t, Config{Name: "free"})
	for i := 0; i < 100; i++ {
		if err := r2.Admit("free", 0, 1000, 1<<30); err != nil {
			t.Fatalf("unlimited tenant throttled: %v", err)
		}
	}
}

func TestRefundReturnsTokens(t *testing.T) {
	r := mustRegistry(t, Config{Name: "a", IOPS: 10, BandwidthBps: 1000})
	if err := r.Admit("a", 0, 10, 1000); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := r.Admit("a", 0, 1, 1); err == nil {
		t.Fatal("drained bucket admitted")
	}
	// A dedup hit refunds the charge; the same batch fits again.
	r.Refund("a", 10, 1000)
	if err := r.Admit("a", 0, 10, 1000); err != nil {
		t.Fatalf("post-refund admit: %v", err)
	}
	st, _ := r.StatsOf("a")
	if st.RefundedOps != 10 || st.RefundedBytes != 1000 {
		t.Fatalf("refund stats = %+v", st)
	}
	// Refunding unknown or system tenants is a no-op, not a panic.
	r.Refund("", 1, 1)
	r.Refund("ghost", 1, 1)
}

func TestCapacityChargeAndCredit(t *testing.T) {
	r := mustRegistry(t, Config{Name: "a", CapacityBytes: 100})
	if err := r.ChargeCapacity("a", 80); err != nil {
		t.Fatalf("charge: %v", err)
	}
	err := r.ChargeCapacity("a", 30)
	if !errors.Is(err, ErrOverQuota) {
		t.Fatalf("want ErrOverQuota on overflow, got %v", err)
	}
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Kind != KindCapacity {
		t.Fatalf("want capacity QuotaError, got %#v", err)
	}
	// The rejected charge consumed nothing.
	if st, _ := r.StatsOf("a"); st.StoredBytes != 80 || st.CapacityRejects != 1 {
		t.Fatalf("stats = %+v", st)
	}
	r.CreditCapacity("a", 50)
	if err := r.ChargeCapacity("a", 30); err != nil {
		t.Fatalf("post-credit charge: %v", err)
	}
	// Credit floors at zero.
	r.CreditCapacity("a", 1<<40)
	if st, _ := r.StatsOf("a"); st.StoredBytes != 0 {
		t.Fatalf("StoredBytes = %d, want 0", st.StoredBytes)
	}
}

func TestShouldShedOrdersByPriority(t *testing.T) {
	r := mustRegistry(t,
		Config{Name: "gold", Priority: 0},
		Config{Name: "silver", Priority: 1},
		Config{Name: "bronze", Priority: 2},
	)
	if r.ShouldShed("gold") {
		t.Fatal("most protected tier shed")
	}
	if !r.ShouldShed("silver") || !r.ShouldShed("bronze") {
		t.Fatal("lower tiers must shed first")
	}
	if r.ShouldShed("") || r.ShouldShed("ghost") {
		t.Fatal("system/unknown identities must not shed")
	}
	// A single tier never sheds ahead of itself.
	r2 := mustRegistry(t, Config{Name: "a", Priority: 3}, Config{Name: "b", Priority: 3})
	if r2.ShouldShed("a") || r2.ShouldShed("b") {
		t.Fatal("uniform priority tier shed")
	}

	err := r.Shed("bronze", 2*time.Second)
	if !errors.Is(err, ErrShed) {
		t.Fatalf("want ErrShed, got %v", err)
	}
	if errors.Is(err, ErrOverQuota) {
		t.Fatal("shed must not match ErrOverQuota")
	}
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.RetryAfter != 2*time.Second {
		t.Fatalf("shed error = %#v", err)
	}
	if st, _ := r.StatsOf("bronze"); st.Shed != 1 {
		t.Fatalf("shed stats = %+v", st)
	}
}

func TestSetUpdatesContractKeepingCounters(t *testing.T) {
	r := mustRegistry(t, Config{Name: "a", IOPS: 5})
	if err := r.Admit("a", 0, 5, 0); err != nil {
		t.Fatalf("admit: %v", err)
	}
	if err := r.Set(Config{Name: "a", IOPS: 50, Weight: 7}); err != nil {
		t.Fatalf("set: %v", err)
	}
	cfg, ok := r.Get("a")
	if !ok || cfg.IOPS != 50 || cfg.Weight != 7 {
		t.Fatalf("updated cfg = %+v", cfg)
	}
	if st, _ := r.StatsOf("a"); st.Admitted != 1 {
		t.Fatalf("counters reset on update: %+v", st)
	}
}

func TestStatusSortedByName(t *testing.T) {
	r := mustRegistry(t, Config{Name: "zeta"}, Config{Name: "alpha"}, Config{Name: "mid"})
	st := r.Status()
	if len(st) != 3 || st[0].Name != "alpha" || st[1].Name != "mid" || st[2].Name != "zeta" {
		t.Fatalf("status order = %+v", st)
	}
}

// TestResolveFirstTenantTurnsMeteringOn: with no tenant declared every
// name runs as the system identity and nothing is metered; the first
// declared tenant turns metering on, after which an undeclared name is
// unknown.
func TestResolveFirstTenantTurnsMeteringOn(t *testing.T) {
	r := mustRegistry(t)
	for _, name := range []string{"", "gold", "ghost"} {
		if got, err := r.Resolve(name); got != "" || err != nil {
			t.Fatalf("untenanted Resolve(%q) = %q, %v; want system identity", name, got, err)
		}
	}
	if err := r.Admit("ghost", 0, 1, 1<<30); err != nil {
		t.Fatalf("untenanted admit: %v", err)
	}
	if err := r.ChargeCapacity("ghost", 1<<30); err != nil {
		t.Fatalf("untenanted capacity charge: %v", err)
	}
	if err := r.Set(Config{Name: "gold", BandwidthBps: 2048}); err != nil {
		t.Fatal(err)
	}
	if got, err := r.Resolve("gold"); got != "gold" || err != nil {
		t.Fatalf("Resolve(gold) = %q, %v", got, err)
	}
	if got, err := r.Resolve(""); got != "" || err != nil {
		t.Fatalf("Resolve(\"\") = %q, %v", got, err)
	}
	if _, err := r.Resolve("ghost"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("Resolve(ghost) = %v, want ErrUnknown", err)
	}
	if err := r.Admit("gold", 0, 1, 4096); !errors.Is(err, ErrOverQuota) {
		t.Fatalf("declared tenant over quota: %v, want ErrOverQuota", err)
	}
}
