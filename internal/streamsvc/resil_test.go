package streamsvc

import (
	"errors"
	"testing"
	"time"

	"streamlake/internal/faults"
	"streamlake/internal/obs"
	"streamlake/internal/resil"
)

// scriptNet fails a scripted number of forward and reverse deliveries,
// then passes everything — deterministic loss for retry tests.
type scriptNet struct {
	failFwd int // drop this many client->worker deliveries
	failAck int // drop this many worker->client deliveries
	fwd     int
	ack     int
}

var errNetDrop = errors.New("scripted drop")

func (h *scriptNet) Deliver(from, to string, n int64) (time.Duration, error) {
	if from == "client" {
		h.fwd++
		if h.fwd <= h.failFwd {
			return 0, errNetDrop
		}
	}
	if to == "client" {
		h.ack++
		if h.ack <= h.failAck {
			return 0, errNetDrop
		}
	}
	return 0, nil
}

// resilService builds a one-worker service over hook. tuned=false leaves
// the service exactly as New built it: resilience is the produce path,
// not something SetResilience switches on.
func resilService(t *testing.T, hook interface {
	Deliver(from, to string, n int64) (time.Duration, error)
}, tuned bool) (*Service, *obs.Registry) {
	t.Helper()
	s := newService(t, 1)
	reg := obs.NewRegistry(s.Clock())
	s.SetObs(reg)
	s.Store().SetObs(reg)
	s.SetNet(hook)
	if tuned {
		s.SetResilience(42)
	}
	if err := s.CreateTopic(TopicConfig{Name: "t", StreamNum: 1}); err != nil {
		t.Fatal(err)
	}
	return s, reg
}

// TestRetrySurvivesForwardDrops: dropped forward transfers are retried
// with backoff until one lands; the record appends and acks exactly
// once — on a service tuned through SetResilience and on one built by
// bare New + SetNet alike.
func TestRetrySurvivesForwardDrops(t *testing.T) {
	for _, tc := range []struct {
		name    string
		tuned   bool
		failFwd int
	}{
		{"tuned", true, 2},
		{"bare New", false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := &scriptNet{failFwd: tc.failFwd}
			s, reg := resilService(t, net, tc.tuned)
			p := s.Producer("p1")
			msg, cost, err := p.Send("t", []byte("k"), []byte("v"))
			if err != nil {
				t.Fatal(err)
			}
			if msg.Offset != 0 {
				t.Fatalf("offset: %d", msg.Offset)
			}
			objs, _ := s.Streams("t")
			if end := objs[0].End(); end != 1 {
				t.Fatalf("retries double-appended: end=%d want 1", end)
			}
			if got := reg.Counter("streamsvc_retries_total").Value(); got != int64(tc.failFwd) {
				t.Fatalf("retries counter: %d want %d", got, tc.failFwd)
			}
			if net.ack != 1 {
				t.Fatalf("acks on the reverse link: %d want exactly 1", net.ack)
			}
			if cost <= 0 {
				t.Fatalf("cost: %v", cost)
			}
		})
	}
}

// TestLostAckDedups is the ambiguous-failure case retries exist for:
// the append lands durably, the ack is lost, and the redelivered batch
// must dedup to the original offset instead of appending twice.
func TestLostAckDedups(t *testing.T) {
	s, reg := resilService(t, &scriptNet{failAck: 1}, true)
	p := s.Producer("p1")
	msg, _, err := p.Send("t", []byte("k"), []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if msg.Offset != 0 {
		t.Fatalf("dedup did not return the original base: offset=%d", msg.Offset)
	}
	objs, _ := s.Streams("t")
	if end := objs[0].End(); end != 1 {
		t.Fatalf("lost ack double-appended: end=%d want 1", end)
	}
	if got := reg.Counter("streamsvc_ack_drops_total").Value(); got != 1 {
		t.Fatalf("ack drops counter: %d want 1", got)
	}
	if got := reg.Counter("streamobj_dedup_acks_total").Value(); got != 1 {
		t.Fatalf("dedup acks counter: %d want 1", got)
	}
	// The producer keeps working after the wobble.
	msg2, _, err := p.Send("t", []byte("k2"), []byte("v2"))
	if err != nil || msg2.Offset != 1 {
		t.Fatalf("follow-up send: %+v %v", msg2, err)
	}
}

// TestBreakerShedsAndRecovers: a partitioned worker exhausts retries
// until the breaker trips, sheds cheaply while open, then recovers
// through a half-open probe once the partition heals and the cooldown
// elapses.
func TestBreakerShedsAndRecovers(t *testing.T) {
	np := faults.NewNetPlane(7)
	s := newService(t, 1)
	reg := obs.NewRegistry(s.Clock())
	s.SetObs(reg)
	s.SetNet(np)
	s.SetResilience(42)
	if err := s.CreateTopic(TopicConfig{Name: "t", StreamNum: 1}); err != nil {
		t.Fatal(err)
	}
	np.Partition("client", "worker/0")
	p := s.Producer("p1")
	// 2 sends x 4 attempts, a few ms of drop timeouts and backoff in
	// all: the fifth failure lands inside the 50ms window and trips the
	// breaker.
	for i := 0; i < 2; i++ {
		if _, _, err := p.Send("t", []byte("k"), []byte("v")); err == nil {
			t.Fatal("partitioned send succeeded")
		}
	}
	_, _, err := p.Send("t", []byte("k"), []byte("v"))
	if !errors.Is(err, resil.ErrBreakerOpen) {
		t.Fatalf("open breaker did not shed: %v", err)
	}
	if got := reg.Counter("streamsvc_breaker_trips_total").Value(); got == 0 {
		t.Fatal("no breaker trip recorded")
	}
	if got := reg.Counter("streamsvc_breaker_sheds_total").Value(); got == 0 {
		t.Fatal("no shed recorded")
	}
	ebs := s.BreakerStates()
	if len(ebs) != 1 || ebs[0].Endpoint != "worker/0" || ebs[0].State != resil.Open {
		t.Fatalf("breaker states: %+v", ebs)
	}
	// Heal, let the 20ms cooldown pass, and the half-open probe closes
	// it.
	np.Heal("client", "worker/0")
	s.Clock().Advance(30 * time.Millisecond)
	msg, _, err := p.Send("t", []byte("k"), []byte("v"))
	if err != nil {
		t.Fatalf("probe send: %v", err)
	}
	if msg.Offset != 0 {
		t.Fatalf("offset after recovery: %d", msg.Offset)
	}
	if st := s.BreakerStates()[0].State; st != resil.Closed {
		t.Fatalf("breaker did not close after probe: %v", st)
	}
}

// TestProduceDeadline: a request that is already over budget fails
// with ErrDeadlineExceeded before anything is appended.
func TestProduceDeadline(t *testing.T) {
	s, reg := resilService(t, &scriptNet{}, true)
	p := s.Producer("p1")
	rc := resil.NewCtx(s.Clock().Now(), time.Nanosecond)
	rc.Charge(time.Millisecond) // over budget on arrival
	_, _, err := p.SendSpanCtx("t", []byte("k"), []byte("v"), nil, rc)
	if !errors.Is(err, resil.ErrDeadlineExceeded) {
		t.Fatalf("want deadline exceeded, got %v", err)
	}
	objs, _ := s.Streams("t")
	if end := objs[0].End(); end != 0 {
		t.Fatalf("expired deadline still appended: end=%d", end)
	}
	if got := reg.Counter("streamsvc_deadline_exceeded_total").Value(); got == 0 {
		t.Fatal("deadline counter not bumped")
	}
}

// TestPollCtxDeadline: an expired consumer deadline surfaces
// ErrDeadlineExceeded; a fresh poll then drains normally.
func TestPollCtxDeadline(t *testing.T) {
	s, _ := resilService(t, &scriptNet{}, true)
	p := s.Producer("p1")
	for i := 0; i < 3; i++ {
		if _, _, err := p.Send("t", []byte{byte(i)}, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	c := s.Consumer("g")
	if err := c.Subscribe("t"); err != nil {
		t.Fatal(err)
	}
	rc := resil.NewCtx(s.Clock().Now(), time.Nanosecond)
	rc.Charge(time.Millisecond) // request already over budget on arrival
	msgs, _, err := c.PollSpanCtx(10, nil, rc)
	if !errors.Is(err, resil.ErrDeadlineExceeded) {
		t.Fatalf("want deadline exceeded, got %v (msgs=%d)", err, len(msgs))
	}
	msgs, _, err = c.Poll(10)
	if err != nil || len(msgs) != 3 {
		t.Fatalf("fresh poll: %d msgs, %v", len(msgs), err)
	}
}
