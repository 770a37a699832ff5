package streamsvc

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"streamlake/internal/obs"
	"streamlake/internal/plog"
	"streamlake/internal/pool"
	"streamlake/internal/sim"
	"streamlake/internal/streamobj"
)

func newService(t testing.TB, workers int) *Service {
	t.Helper()
	clock := sim.NewClock()
	p := pool.New("svc", clock, sim.NVMeSSD, 6, 4<<20)
	store := streamobj.NewStore(clock, plog.NewManager(p, 1<<20))
	return New(clock, store, workers)
}

func TestCreateDeleteTopic(t *testing.T) {
	s := newService(t, 2)
	if err := s.CreateTopic(TopicConfig{Name: "logins", StreamNum: 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTopic(TopicConfig{Name: "logins"}); !errors.Is(err, ErrTopicExists) {
		t.Fatalf("duplicate topic: %v", err)
	}
	cfg, err := s.Topic("logins")
	if err != nil || cfg.StreamNum != 3 {
		t.Fatalf("topic: %+v %v", cfg, err)
	}
	if s.Store().Count() != 3 {
		t.Fatalf("stream objects: %d", s.Store().Count())
	}
	if err := s.DeleteTopic("logins"); err != nil {
		t.Fatal(err)
	}
	if s.Store().Count() != 0 {
		t.Fatal("delete topic left stream objects")
	}
	if err := s.DeleteTopic("logins"); !errors.Is(err, ErrUnknownTopic) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestTopicDefaults(t *testing.T) {
	s := newService(t, 1)
	s.CreateTopic(TopicConfig{Name: "t", Convert: ConvertConfig{Enabled: true}, Archive: ArchiveConfig{Enabled: true}})
	cfg, _ := s.Topic("t")
	if cfg.StreamNum != 1 || cfg.Convert.SplitOffset != 10_000_000 ||
		cfg.Convert.SplitTime != 36000*time.Second || cfg.Archive.ArchiveBytes != 256<<20 {
		t.Fatalf("defaults: %+v", cfg)
	}
}

func TestRoundRobinWorkerAssignment(t *testing.T) {
	s := newService(t, 3)
	s.CreateTopic(TopicConfig{Name: "t", StreamNum: 9})
	for id, n := range streamsPerWorker(s) {
		if n != 3 {
			t.Fatalf("worker %d has %d streams, want 3", id, n)
		}
	}
}

func TestProduceConsume(t *testing.T) {
	s := newService(t, 2)
	s.CreateTopic(TopicConfig{Name: "topic_streamlake_test", StreamNum: 2})
	p := s.Producer("p1")
	msg, cost, err := p.Send("topic_streamlake_test", []byte("key"), []byte("Hello world"))
	if err != nil || cost <= 0 {
		t.Fatalf("send: %v cost=%v", err, cost)
	}
	if msg.Topic != "topic_streamlake_test" || msg.Offset != 0 {
		t.Fatalf("message: %+v", msg)
	}
	c := s.Consumer("g1")
	if err := c.Subscribe("topic_streamlake_test"); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Poll(10)
	if err != nil || len(got) != 1 || string(got[0].Value) != "Hello world" {
		t.Fatalf("poll: %+v %v", got, err)
	}
	// Caught up: empty poll.
	got, _, err = c.Poll(10)
	if err != nil || len(got) != 0 {
		t.Fatalf("second poll: %+v %v", got, err)
	}
}

func TestProduceToUnknownTopic(t *testing.T) {
	s := newService(t, 1)
	if _, _, err := s.Producer("p").Send("nope", []byte("k"), []byte("v")); !errors.Is(err, ErrUnknownTopic) {
		t.Fatalf("unknown topic: %v", err)
	}
	c := s.Consumer("g")
	if err := c.Subscribe("nope"); !errors.Is(err, ErrUnknownTopic) {
		t.Fatalf("subscribe unknown: %v", err)
	}
	if _, _, err := c.Poll(1); !errors.Is(err, ErrNotSubscribed) {
		t.Fatalf("poll unsubscribed: %v", err)
	}
}

func TestOrderingWithinStream(t *testing.T) {
	s := newService(t, 2)
	s.CreateTopic(TopicConfig{Name: "t", StreamNum: 3})
	p := s.Producer("p")
	key := []byte("same-key") // one key -> one stream -> strict order
	for i := 0; i < 500; i++ {
		if _, _, err := p.Send("t", key, []byte(fmt.Sprintf("%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c := s.Consumer("g")
	c.Subscribe("t")
	var seen []string
	for {
		msgs, _, err := c.Poll(100)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) == 0 {
			break
		}
		for _, m := range msgs {
			seen = append(seen, string(m.Value))
		}
	}
	if len(seen) != 500 {
		t.Fatalf("got %d messages", len(seen))
	}
	for i, v := range seen {
		if v != fmt.Sprintf("%06d", i) {
			t.Fatalf("order broken at %d: %q", i, v)
		}
	}
}

func TestConsumerGroupOffsetsSurviveRestart(t *testing.T) {
	s := newService(t, 1)
	s.CreateTopic(TopicConfig{Name: "t", StreamNum: 1})
	p := s.Producer("p")
	for i := 0; i < 10; i++ {
		p.Send("t", []byte("k"), []byte(fmt.Sprintf("v%d", i)))
	}
	c1 := s.Consumer("group-a")
	c1.Subscribe("t")
	msgs, _, _ := c1.Poll(4)
	if len(msgs) != 4 {
		t.Fatalf("first poll: %d", len(msgs))
	}
	c1.CommitOffsets()
	// A new consumer in the same group resumes at the committed offset.
	c2 := s.Consumer("group-a")
	c2.Subscribe("t")
	msgs, _, _ = c2.Poll(100)
	if len(msgs) != 6 || string(msgs[0].Value) != "v4" {
		t.Fatalf("resumed poll: %d msgs, first %q", len(msgs), msgs[0].Value)
	}
	// A different group starts from zero.
	c3 := s.Consumer("group-b")
	c3.Subscribe("t")
	msgs, _, _ = c3.Poll(100)
	if len(msgs) != 10 {
		t.Fatalf("fresh group: %d msgs", len(msgs))
	}
}

func TestSeekAndLag(t *testing.T) {
	s := newService(t, 1)
	s.CreateTopic(TopicConfig{Name: "t", StreamNum: 1})
	p := s.Producer("p")
	for i := 0; i < 20; i++ {
		p.Send("t", []byte("k"), []byte("v"))
	}
	reg := obs.NewRegistry(s.Clock())
	s.SetObs(reg)
	lag := reg.Gauge(`streamsvc_consumer_lag{group="g",topic="t"}`)
	c := s.Consumer("g")
	c.Subscribe("t")
	if msgs, _, _ := c.Poll(1); len(msgs) != 1 || lag.Value() != 19 {
		t.Fatalf("first poll: %d msgs, lag %v", len(msgs), lag.Value())
	}
	if err := c.Seek("t", 0, 15); err != nil {
		t.Fatal(err)
	}
	msgs, _, _ := c.Poll(100)
	if len(msgs) != 5 || lag.Value() != 0 {
		t.Fatalf("after seek: %d msgs, lag %v", len(msgs), lag.Value())
	}
	if err := c.Seek("t", 9, 0); err == nil {
		t.Fatal("seek to bad stream accepted")
	}
}

func TestElasticScaleNoDataMigration(t *testing.T) {
	s := newService(t, 2)
	s.CreateTopic(TopicConfig{Name: "t", StreamNum: 100})
	p := s.Producer("p")
	for i := 0; i < 1000; i++ {
		p.Send("t", []byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	objs, _ := s.Streams("t")
	var before int64
	for _, o := range objs {
		before += o.End()
	}
	moved, cost := s.SetWorkerCount(8)
	if moved == 0 {
		t.Fatal("scale-out moved no streams")
	}
	if s.WorkerCount() != 8 {
		t.Fatalf("worker count: %d", s.WorkerCount())
	}
	// Remap is metadata-only: stream contents untouched, and fast
	// (paper: 1000->10000 partitions in under 10 s).
	var after int64
	for _, o := range objs {
		after += o.End()
	}
	if after != before {
		t.Fatal("scaling migrated data")
	}
	if cost > 10*time.Second {
		t.Fatalf("remap cost %v too slow", cost)
	}
	// Service still works end to end.
	if _, _, err := p.Send("t", []byte("post-scale"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	c := s.Consumer("g")
	c.Subscribe("t")
	total := 0
	for {
		msgs, _, err := c.Poll(256)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) == 0 {
			break
		}
		total += len(msgs)
	}
	if total != 1001 {
		t.Fatalf("consumed %d messages after scaling", total)
	}
}

func TestConcurrentProducersAndConsumer(t *testing.T) {
	s := newService(t, 4)
	s.CreateTopic(TopicConfig{Name: "t", StreamNum: 8})
	var wg sync.WaitGroup
	const perProducer = 200
	for pi := 0; pi < 4; pi++ {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			p := s.Producer(fmt.Sprintf("p%d", pi))
			for i := 0; i < perProducer; i++ {
				if _, _, err := p.Send("t", []byte(fmt.Sprintf("k%d-%d", pi, i)), []byte("v")); err != nil {
					t.Error(err)
					return
				}
			}
		}(pi)
	}
	wg.Wait()
	c := s.Consumer("g")
	c.Subscribe("t")
	total := 0
	for {
		msgs, _, err := c.Poll(256)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) == 0 {
			break
		}
		total += len(msgs)
	}
	if total != 4*perProducer {
		t.Fatalf("consumed %d, want %d", total, 4*perProducer)
	}
}

// topologyVersion reads the dispatcher's topology version.
func topologyVersion(s *Service) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.topology
}

func TestTopologyVersionAdvances(t *testing.T) {
	s := newService(t, 1)
	v0 := topologyVersion(s)
	s.CreateTopic(TopicConfig{Name: "t"})
	v1 := topologyVersion(s)
	s.SetWorkerCount(3)
	v2 := topologyVersion(s)
	if !(v0 < v1 && v1 < v2) {
		t.Fatalf("topology versions: %d %d %d", v0, v1, v2)
	}
}

func TestWorkerFailover(t *testing.T) {
	s := newService(t, 3)
	s.CreateTopic(TopicConfig{Name: "t", StreamNum: 9})
	p := s.Producer("p")
	for i := 0; i < 300; i++ {
		if _, _, err := p.Send("t", []byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	v := topologyVersion(s)
	if moved, _ := s.SetWorkerDown(1, true); moved != 3 {
		t.Fatalf("failover moved %d streams, want 3", moved)
	}
	if topologyVersion(s) <= v {
		t.Fatal("topology version did not advance")
	}
	// Every stream is owned by a survivor and the service keeps flowing.
	for id, n := range streamsPerWorker(s) {
		if (n == 0) != (id == 1) {
			t.Fatalf("worker %d owns %d streams after worker 1 went down", id, n)
		}
	}
	if _, _, err := p.Send("t", []byte("post"), []byte("failover")); err != nil {
		t.Fatal(err)
	}
	c := s.Consumer("g")
	c.Subscribe("t")
	total := 0
	for {
		msgs, _, err := c.Poll(256)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) == 0 {
			break
		}
		total += len(msgs)
	}
	if total != 301 {
		t.Fatalf("consumed %d after failover", total)
	}
	// Guard rails: an unknown worker and a repeated verdict move nothing.
	if moved, _ := s.SetWorkerDown(99, true); moved != 0 {
		t.Fatalf("unknown worker moved %d streams", moved)
	}
	if moved, _ := s.SetWorkerDown(1, true); moved != 0 {
		t.Fatalf("repeated verdict moved %d streams", moved)
	}
}

// snapshotAssignments maps every routed stream key to its owner.
func snapshotAssignments(s *Service) map[string]int {
	out := make(map[string]int)
	for name, tr := range s.routes.Load().topics {
		for i, w := range tr.owners {
			out[streamKey(name, i)] = w.id
		}
	}
	return out
}

// streamsPerWorker counts the streams routed to each worker of the fleet.
func streamsPerWorker(s *Service) []int {
	n := make([]int, s.WorkerCount())
	for _, id := range snapshotAssignments(s) {
		n[id]++
	}
	return n
}

// TestSetWorkerDownMinimalChurn pins the failover reassignment contract:
// marking one worker down moves only that worker's streams (rendezvous
// over the survivors), and marking it back up returns exactly those
// streams home — streams on unaffected workers never churn.
func TestSetWorkerDownMinimalChurn(t *testing.T) {
	s := newService(t, 4)
	if err := s.CreateTopic(TopicConfig{Name: "churn", StreamNum: 16}); err != nil {
		t.Fatal(err)
	}
	before := snapshotAssignments(s)
	moved, _ := s.SetWorkerDown(1, true)
	after := snapshotAssignments(s)
	displaced := 0
	for k, owner := range before {
		if owner == 1 {
			displaced++
			if after[k] == 1 {
				t.Fatalf("stream %s left on the down worker", k)
			}
			continue
		}
		if after[k] != owner {
			t.Fatalf("stream %s churned %d -> %d though worker %d stayed up",
				k, owner, after[k], owner)
		}
	}
	if moved != displaced {
		t.Fatalf("down moved %d streams, want exactly the down worker's %d", moved, displaced)
	}
	// Revival: the displaced streams — and only they — return home.
	moved, _ = s.SetWorkerDown(1, false)
	if moved != displaced {
		t.Fatalf("revive moved %d streams, want %d", moved, displaced)
	}
	restored := snapshotAssignments(s)
	for k, owner := range before {
		if restored[k] != owner {
			t.Fatalf("stream %s not restored: %d, want %d", k, restored[k], owner)
		}
	}
}

// TestSetWorkerCountSameSizeKeepsVerdicts: a rescale changes the fleet
// and nothing else — to the current size it moves no stream, and every
// worker id it keeps keeps its down verdict, so no stream goes back to
// a worker whose node is still dead.
func TestSetWorkerCountSameSizeKeepsVerdicts(t *testing.T) {
	s := newService(t, 3)
	if err := s.CreateTopic(TopicConfig{Name: "t", StreamNum: 6}); err != nil {
		t.Fatal(err)
	}
	s.SetWorkerDown(1, true)
	before := snapshotAssignments(s)
	if moved, cost := s.SetWorkerCount(3); moved != 0 || cost != 0 {
		t.Fatalf("a rescale to the same size moved %d streams in %v", moved, cost)
	}
	for k, owner := range snapshotAssignments(s) {
		if before[k] != owner {
			t.Fatalf("stream %s moved %d -> %d in a same-size rescale", k, before[k], owner)
		}
	}
	s.SetWorkerCount(4)
	if n := streamsPerWorker(s)[1]; n != 0 {
		t.Fatalf("worker 1, still down, serves %d streams after a rescale", n)
	}
	// The verdict is kept, not reset: reviving worker 1 moves its streams home.
	if moved, _ := s.SetWorkerDown(1, false); moved == 0 {
		t.Fatal("worker 1 came back up with nothing to return to it: the rescale forgot its verdict")
	}
}
