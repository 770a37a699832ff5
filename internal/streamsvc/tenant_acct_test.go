package streamsvc

import (
	"testing"
	"time"

	"streamlake/internal/plog"
	"streamlake/internal/pool"
	"streamlake/internal/sim"
	"streamlake/internal/streamobj"
	"streamlake/internal/tenant"
)

// acctService builds a one-worker service with a single-tenant registry
// wired through both the produce path and the store, optionally behind
// a scripted-loss network.
func acctService(t *testing.T, hook interface {
	Deliver(from, to string, n int64) (time.Duration, error)
}) (*Service, *tenant.Registry) {
	t.Helper()
	s := newService(t, 1)
	reg, err := tenant.NewRegistry([]tenant.Config{
		{Name: "acme", IOPS: 1000, BandwidthBps: 1 << 20, CapacityBytes: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.SetTenants(reg)
	s.Store().SetTenants(reg)
	if hook != nil {
		s.SetNet(hook)
	}
	s.SetResilience(42)
	if err := s.CreateTopic(TopicConfig{Name: "t", StreamNum: 1}); err != nil {
		t.Fatal(err)
	}
	return s, reg
}

// TestLostAckRetryChargesQuotaOnce pins the retry-accounting contract:
// the append lands, the ack is lost, and the internal redelivery dedups
// — but because an attempt of THIS batch did the durable work, the
// admission charge stands. One batch, one admission, zero refunds, one
// capacity charge.
func TestLostAckRetryChargesQuotaOnce(t *testing.T) {
	s, reg := acctService(t, &scriptNet{failAck: 1})
	p := s.TenantProducer("p1", "acme")
	msg, _, err := p.Send("t", []byte("a"), []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if msg.Offset != 0 {
		t.Fatalf("offset = %d, want 0", msg.Offset)
	}
	st, ok := reg.StatsOf("acme")
	if !ok {
		t.Fatal("tenant vanished")
	}
	if st.Admitted != 1 || st.AdmittedOps != 1 {
		t.Fatalf("lost-ack retry re-admitted: %+v", st)
	}
	if st.RefundedOps != 0 || st.RefundedBytes != 0 {
		t.Fatalf("internal retry refunded its own work: %+v", st)
	}
	if st.StoredBytes <= 0 {
		t.Fatalf("capacity not charged: %+v", st)
	}
	// A second, same-sized, fault-free batch must exactly double the
	// capacity charge — proving the retried batch was charged once,
	// not twice.
	one := st.StoredBytes
	if _, _, err := p.Send("t", []byte("b"), []byte("w")); err != nil {
		t.Fatal(err)
	}
	st, _ = reg.StatsOf("acme")
	if st.StoredBytes != 2*one {
		t.Fatalf("stored after second batch = %d, want %d", st.StoredBytes, 2*one)
	}
	objs, _ := s.Streams("t")
	if end := objs[0].End(); end != 2 {
		t.Fatalf("stream end = %d, want 2", end)
	}
}

// TestDedupReplayRefundsExactlyOnce: a reincarnated producer (same id,
// sequence numbers restart) replays a batch an earlier incarnation
// already appended. The replay is freshly admitted — the gate cannot
// know yet — but the dedup re-ack did no work, so the admission is
// refunded exactly once and capacity is never charged a second time.
func TestDedupReplayRefundsExactlyOnce(t *testing.T) {
	s, reg := acctService(t, nil)
	key, val := []byte("k"), []byte("v")

	first := s.TenantProducer("p1", "acme")
	msg, _, err := first.Send("t", key, val)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Offset != 0 {
		t.Fatalf("first offset = %d", msg.Offset)
	}
	st, _ := reg.StatsOf("acme")
	stored := st.StoredBytes

	// Same producer id, fresh incarnation: its first send reuses seq 1
	// and lands in the dedup window.
	replay := s.TenantProducer("p1", "acme")
	msg, _, err = replay.Send("t", key, val)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Offset != 0 {
		t.Fatalf("replay offset = %d, want original base 0", msg.Offset)
	}
	objs, _ := s.Streams("t")
	if end := objs[0].End(); end != 1 {
		t.Fatalf("replay double-appended: end = %d", end)
	}

	st, _ = reg.StatsOf("acme")
	if st.Admitted != 2 || st.AdmittedOps != 2 || st.AdmittedBytes != 4 {
		t.Fatalf("admissions: %+v, want 2 batches / 2 ops / 4 bytes", st)
	}
	if st.RefundedOps != 1 || st.RefundedBytes != 2 {
		t.Fatalf("refunds: %+v, want exactly one op / 2 bytes back", st)
	}
	if st.StoredBytes != stored {
		t.Fatalf("dedup re-ack re-charged capacity: %d, want %d", st.StoredBytes, stored)
	}
}

// TestGroupCommitFlushPaysPoolAdmission: with group commit folding
// slices into coalesced PLog writes, the flushed bytes still drain the
// per-tenant pending ledger through weighted-fair pool admission — the
// coalesced commit is attributed to the tenant that produced it, not
// lost in the fold.
func TestGroupCommitFlushPaysPoolAdmission(t *testing.T) {
	// The worker buses carry the shared-backlog control scheduler, which
	// attributes no delay to any tenant, so weighted-fair pool admission
	// at slice flush is the ONLY possible source of WFQ delay below.
	clock := sim.NewClock()
	mgr := plog.NewManager(pool.New("svc", clock, sim.NVMeSSD, 6, 4<<20), 1<<20)
	s := New(clock, streamobj.NewStore(clock, mgr), 1)
	reg, err := tenant.NewRegistry([]tenant.Config{{Name: "acme"}})
	if err != nil {
		t.Fatal(err)
	}
	s.SetTenants(reg)
	s.Store().SetTenants(reg)
	s.SetContention()
	s.Store().EnableGroupCommit(2)
	if err := s.CreateTopic(TopicConfig{Name: "t", StreamNum: 1}); err != nil {
		t.Fatal(err)
	}
	p := s.TenantProducer("gp", "acme")

	// One slice buffered: group commit defers, so nothing has entered
	// the pool and no admission delay may be charged yet.
	for i := 0; i < 256; i++ {
		if _, _, err := p.Send("t", []byte{byte(i), byte(i >> 8), 'a'}, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := reg.StatsOf("acme")
	if st.WFQDelay != 0 {
		t.Fatalf("pool admission charged before any flush: %v", st.WFQDelay)
	}
	if st.StoredBytes <= 0 {
		t.Fatal("capacity not charged at durable append")
	}

	// Second slice reaches the coordinator's target: one coalesced
	// commit flushes both slices and the tenant pays admission for them.
	for i := 256; i < 512; i++ {
		if _, _, err := p.Send("t", []byte{byte(i), byte(i >> 8), 'a'}, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if gcs := mgr.GroupCommitStats(); gcs.Commits < 1 {
		t.Fatalf("group commit never fired: %+v", gcs)
	}
	st, _ = reg.StatsOf("acme")
	if st.WFQDelay <= 0 {
		t.Fatal("coalesced flush skipped weighted-fair pool admission")
	}
}
