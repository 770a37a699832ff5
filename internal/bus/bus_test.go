package bus

import (
	"testing"
	"time"
)

func TestRDMABeatsTCP(t *testing.T) {
	r := New(Config{Path: RDMA})
	c := New(Config{Path: TCP})
	n := int64(1024)
	if rd, td := r.Send(n, Normal), c.Send(n, Normal); rd >= td {
		t.Fatalf("rdma %v >= tcp %v", rd, td)
	}
	if r.link.Spec().WriteLatency >= c.link.Spec().WriteLatency {
		t.Fatal("rdma fixed cost should be lower")
	}
}

func TestAggregationAmortizesFixedCost(t *testing.T) {
	agg := New(Config{Path: TCP, Aggregation: true})
	raw := New(Config{Path: TCP})
	var aggTotal, rawTotal time.Duration
	for i := 0; i < 160; i++ {
		aggTotal += agg.Send(512, Normal)
		rawTotal += raw.Send(512, Normal)
	}
	// 160 small sends: aggregated pays fixed cost 10 times, raw 160
	// times. Expect a large gap.
	if aggTotal*4 > rawTotal {
		t.Fatalf("aggregation saved too little: agg=%v raw=%v", aggTotal, rawTotal)
	}
	st := agg.Peek()
	if st.Batches != 10 || st.Aggregated != 150 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestAggregationSkipsLargeIO(t *testing.T) {
	b := New(Config{Path: TCP, Aggregation: true})
	for i := 0; i < 100; i++ {
		b.Send(smallIOBytes+1, Normal) // one byte past small I/O
	}
	if st := b.Peek(); st.Aggregated != 0 {
		t.Fatalf("large I/O was aggregated: %+v", st)
	}
}

func TestPriorityScheduling(t *testing.T) {
	b := New(Config{Path: TCP})
	// Load the bus with high-priority traffic.
	b.Send(10<<20, High)
	lo := b.Send(1024, Low)
	b.Send(10<<20, High)
	no := b.Send(1024, Normal)
	b.Send(10<<20, High)
	hi := b.Send(1024, High)
	if !(hi < no && no < lo) {
		t.Fatalf("priority ordering violated: high=%v normal=%v low=%v", hi, no, lo)
	}
	if b.Peek().QueueDelay <= 0 {
		t.Fatal("no queue delay recorded")
	}
}

func TestStatsAccumulate(t *testing.T) {
	b := New(Config{Path: RDMA})
	b.Send(100, Normal)
	b.Send(200, Normal)
	st := b.Peek()
	if st.Sends != 2 || st.Bytes != 300 {
		t.Fatalf("stats: %+v", st)
	}
	if b.Link().Stats().WriteBytes != 300 {
		t.Fatalf("link bytes: %d", b.Link().Stats().WriteBytes)
	}
}

// scriptHook fails delivery according to a fixed script: call i fails
// iff fail[i] is true. Extra calls succeed.
type scriptHook struct {
	fail  []bool
	calls int
	err   error
}

func (h *scriptHook) Deliver(from, to string, n int64) (time.Duration, error) {
	i := h.calls
	h.calls++
	if i < len(h.fail) && h.fail[i] {
		return 0, h.err
	}
	return 0, nil
}

// errDrop stands in for the faults package's drop error (bus must not
// import faults).
var errDrop = &timeoutErr{}

type timeoutErr struct{}

func (*timeoutErr) Error() string { return "dropped" }

// TestDroppedSendLeavesBatchAccountingIntact is the satellite-1
// regression: a failed (dropped/partitioned) send must not fill an
// aggregation-batch slot, must not count in Sends/Bytes, and must not
// cause the batch's deferred fixed cost to be charged twice when the
// send is retried and the batch later flushes.
func TestDroppedSendLeavesBatchAccountingIntact(t *testing.T) {
	// Script: every third delivery attempt fails.
	fail := make([]bool, 30)
	for i := 2; i < len(fail); i += 3 {
		fail[i] = true
	}
	b := New(Config{Path: TCP, Aggregation: true})
	b.SetNet(&scriptHook{fail: fail, err: errDrop}, "client")

	delivered, dropped := 0, 0
	for i := 0; i < 24; i++ {
		// Retry each message until it lands, like the producer does.
		for {
			_, err := b.SendLinkT("client", "worker/0", 512, Normal, "")
			if err == nil {
				delivered++
				break
			}
			dropped++
		}
	}
	if delivered != 24 || dropped == 0 {
		t.Fatalf("script did not exercise drops: delivered=%d dropped=%d", delivered, dropped)
	}
	st := b.Peek()
	if st.Sends != 24 || st.Bytes != 24*512 {
		t.Fatalf("delivered accounting polluted by drops: %+v", st)
	}
	if st.Drops != int64(dropped) || st.DroppedBytes != int64(dropped)*512 {
		t.Fatalf("drop accounting: %+v want %d drops", st, dropped)
	}
	// 24 delivered small sends = 1 full batch (16) + 8 pending: exactly
	// one batch, whatever the drops.
	if st.Batches != 1 {
		t.Fatalf("batch accounting double-charged or leaked: %+v", st)
	}
	if st.Aggregated != 23 { // all but the batch-closing 16th send deferred
		t.Fatalf("aggregated count: %+v", st)
	}
}

// TestDropChargesTimeoutNotTransfer: an undelivered message costs the
// sender its injected delay plus the drop timeout — never the transfer
// or fixed cost — and the link device sees no bytes for it.
func TestDropChargesTimeoutNotTransfer(t *testing.T) {
	b := New(Config{Path: RDMA})
	b.SetNet(&scriptHook{fail: []bool{true, false}, err: errDrop}, "client")
	cost, err := b.SendLinkT("client", "worker/0", 1<<20, Normal, "")
	if err == nil {
		t.Fatal("scripted drop did not surface")
	}
	if cost != dropTimeout {
		t.Fatalf("drop cost = %v, want the %v drop timeout", cost, dropTimeout)
	}
	if got := b.Link().Stats().WriteBytes; got != 0 {
		t.Fatalf("dropped bytes reached the link device: %d", got)
	}
	if _, err := b.SendLinkT("client", "worker/0", 1<<20, Normal, ""); err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if got := b.Link().Stats().WriteBytes; got != 1<<20 {
		t.Fatalf("retry bytes: %d", got)
	}
}

// TestSendWithoutHookUnchanged: with no fault plane attached, SendLinkT
// behaves exactly like the legacy Send.
func TestSendWithoutHookUnchanged(t *testing.T) {
	a := New(Config{Path: TCP, Aggregation: true})
	b := New(Config{Path: TCP, Aggregation: true})
	for i := 0; i < 20; i++ {
		want := a.Send(512, Normal)
		got, err := b.SendLinkT("client", "worker/0", 512, Normal, "")
		if err != nil || got != want {
			t.Fatalf("send %d: got (%v,%v) want (%v,nil)", i, got, err, want)
		}
	}
}

func TestQueueDelayPerPriorityBreakdown(t *testing.T) {
	b := New(Config{Path: RDMA})
	// Establish outstanding high-priority bytes, then queue Normal and
	// Low sends behind them.
	b.Send(1<<20, High)
	b.Send(1<<10, Normal)
	b.Send(1<<20, High)
	b.Send(1<<10, Low)
	st := b.Peek()
	if st.QueueDelayNormal <= 0 || st.QueueDelayLow <= 0 {
		t.Fatalf("missing per-class delay: %+v", st)
	}
	if st.QueueDelayHigh != 0 {
		t.Fatalf("High never queues in the priority model: %+v", st)
	}
	// Low pays 2x the per-byte penalty of Normal for the same backlog.
	if st.QueueDelayLow != 2*st.QueueDelayNormal {
		t.Fatalf("Low = %v, want 2x Normal %v", st.QueueDelayLow, st.QueueDelayNormal)
	}
	if sum := st.QueueDelayHigh + st.QueueDelayNormal + st.QueueDelayLow; sum != st.QueueDelay {
		t.Fatalf("breakdown sum %v != cumulative %v", sum, st.QueueDelay)
	}
}

type fixedQoS struct{ d time.Duration }

func (f fixedQoS) Delay(tenant string, class int, n int64) time.Duration {
	if tenant == "" {
		return 0
	}
	return f.d
}

func TestSendLinkTChargesQoSDelay(t *testing.T) {
	b := New(Config{Path: RDMA})
	base, err := b.SendLinkT("a", "b", 1024, Normal, "")
	if err != nil {
		t.Fatalf("send: %v", err)
	}
	b.SetQoS(fixedQoS{d: 3 * time.Millisecond})
	tagged, err := b.SendLinkT("a", "b", 1024, Normal, "tenantA")
	if err != nil {
		t.Fatalf("send: %v", err)
	}
	if tagged != base+3*time.Millisecond {
		t.Fatalf("qos delay not charged: base %v tagged %v", base, tagged)
	}
	system, err := b.SendLinkT("a", "b", 1024, Normal, "")
	if err != nil {
		t.Fatalf("send: %v", err)
	}
	if system != base {
		t.Fatalf("system identity delayed: %v vs %v", system, base)
	}
	st := b.Peek()
	if st.QueueDelayNormal != 3*time.Millisecond || st.QueueDelay != 3*time.Millisecond {
		t.Fatalf("qos delay not attributed to Normal class: %+v", st)
	}
}

// TestRetireForwardsLaterCounts: Peek reads the counts without closing
// the pending aggregation batch, Retire moves them into the tally, and
// a send that lands on the bus after it was retired goes there too.
func TestRetireForwardsLaterCounts(t *testing.T) {
	b := New(Config{Path: RDMA, Aggregation: true})
	b.Send(100, Normal)
	if st := b.Peek(); st.Sends != 1 || st.Aggregated != 1 || st.Batches != 0 {
		t.Fatalf("peek: %+v", st)
	}
	var tally Tally
	b.Retire(&tally)
	b.Send(50, Normal)
	if st := tally.Stats(); st.Sends != 2 || st.Bytes != 150 || st.Batches != 0 {
		t.Fatalf("tally: %+v", st)
	}
	if st := b.Peek(); st.Sends != 0 {
		t.Fatalf("retired bus kept counts: %+v", st)
	}
}
