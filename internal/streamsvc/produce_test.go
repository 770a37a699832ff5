package streamsvc

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"streamlake/internal/faults"
	"streamlake/internal/obs"
)

// sendRig is a service wired the way Open wires a lake's — obs on the
// service, its buses and the store, a fault plane with no rule standing
// — over one topic, with keys that spread over its streams.
func sendRig(t testing.TB, workers, streams int) (*Service, *faults.NetPlane, [][]byte) {
	t.Helper()
	s := newService(t, workers)
	reg := obs.NewRegistry(s.Clock())
	s.SetObs(reg)
	s.Store().SetObs(reg)
	np := faults.NewNetPlane(1)
	s.SetNet(np)
	if err := s.CreateTopic(TopicConfig{Name: "t", StreamNum: streams}); err != nil {
		t.Fatal(err)
	}
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%03d", i))
	}
	return s, np, keys
}

// TestSendAllocatesNothing: a steady-state Send makes no heap allocation
// of its own — the record and its message live in the caller's frame,
// routing is a snapshot load and two slice indexes, sequence numbers a
// slice index. What still allocates is the slice flush, once per 256
// records per stream, which AllocsPerRun's integer mean amortises away.
// The count is the least of five windows: what the runtime allocates
// for itself inside one (a thread started by a stop-the-world) is not
// the Send's.
func TestSendAllocatesNothing(t *testing.T) {
	s, _, keys := sendRig(t, 2, 4)
	p := s.Producer("allocs")
	value := make([]byte, 1200)
	send := func(i int) {
		if _, _, err := p.Send("t", keys[i%len(keys)], value); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2048; i++ { // every stream past its first flush
		send(i)
	}
	i := 0
	allocs := testing.AllocsPerRun(20480, func() { send(i); i++ })
	for w := 1; w < 5; w++ {
		allocs = min(allocs, testing.AllocsPerRun(20480, func() { send(i); i++ }))
	}
	if allocs != 0 {
		t.Fatalf("a Send allocates %.0f times, want 0", allocs)
	}
}

// TestEnabledObsOverheadBound is TestDisabledObsOverheadBound's other
// half (internal/plog; this one lives where a Send is). First, exactly:
// with a registry attached one Send observes into four histograms
// (produce, ack, the forward and the reverse bus send) and bumps two
// counters (produced messages and bytes), and a new instrument on the
// produce path fails here first. The two bus samples and the bus_*
// counters are the buses' Stats, kept under the lock each bus send
// already holds and read at snapshot time: plain adds. The rest are six
// atomic adds. Then, as a wall-clock ratio (the full pass only): that
// work, timed in isolation, must stay under 10 % of a Send.
// Each side is the best of three rounds, so a neighbour's burst does
// not decide the ratio.
func TestEnabledObsOverheadBound(t *testing.T) {
	const n = 20000
	value := make([]byte, 1200)
	{
		s, _, keys := sendRig(t, 2, 4)
		p := s.Producer("count")
		send := func() {
			if _, _, err := p.Send("t", keys[0], value); err != nil {
				t.Fatal(err)
			}
		}
		reg := s.routes.Load().reg
		before := reg.Snapshot()
		send()
		after := reg.Snapshot()
		var observes int64
		var bumped []string
		for name, h := range after.Histograms {
			observes += h.Count - before.Histograms[name].Count
		}
		for name, v := range after.Counters {
			if v != before.Counters[name] && !strings.HasPrefix(name, "bus_") {
				bumped = append(bumped, name)
			}
		}
		if observes != 4 || len(bumped) != 2 {
			t.Fatalf("one Send made %d histogram observes (want 4) and bumped %d counters (want 2): %v", observes, len(bumped), bumped)
		}
	}
	if testing.Short() {
		t.Skip("timing test")
	}
	best := func(round func()) time.Duration {
		min := time.Duration(1 << 62)
		for r := 0; r < 3; r++ {
			start := time.Now()
			round()
			if d := time.Since(start); d < min {
				min = d
			}
		}
		return min
	}
	sendRounds := func() time.Duration {
		s, _, keys := sendRig(t, 2, 4)
		p := s.Producer("ovh")
		return best(func() {
			for i := 0; i < n; i++ {
				if _, _, err := p.Send("t", keys[i%len(keys)], value); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	// The first rig only grows the heap: its logs keep every byte sent, so
	// its rounds are timed on fresh pages. Collected, it leaves the second
	// rig memory the process already owns, as a long-running lake has.
	sendRounds()
	runtime.GC()
	sendTime := sendRounds()

	reg := obs.NewRegistry(nil)
	var hists [2]*obs.Histogram
	var ctrs [2]*obs.Counter
	var busLat [2]obs.HistogramSnapshot
	for i := range hists {
		hists[i] = reg.Histogram(fmt.Sprint("h", i))
	}
	for i := range ctrs {
		ctrs[i] = reg.Counter(fmt.Sprint("c", i))
	}
	obsTime := best(func() {
		for i := 0; i < n; i++ {
			d := time.Duration(3000 + i%50000) // a produce costs 3–50 µs of virtual time
			for _, h := range hists {
				h.Observe(d)
			}
			for j := range busLat {
				busLat[j].Observe(d)
			}
			for _, c := range ctrs {
				c.Add(int64(len(value)))
			}
		}
	})
	t.Logf("send: %.0f ns/op; enabled obs: %.1f ns/op, %.2f%%",
		float64(sendTime.Nanoseconds())/n, float64(obsTime.Nanoseconds())/n, 100*float64(obsTime)/float64(sendTime))
	if obsTime*10 > sendTime {
		t.Fatalf("enabled obs work %v is over 10%% of send time %v", obsTime, sendTime)
	}
}

// drain reads a topic from offset 0 with a fresh group, per stream.
func drain(t testing.TB, s *Service, group string, streams int) [][]Message {
	t.Helper()
	c := s.Consumer(group)
	if err := c.Subscribe("t"); err != nil {
		t.Fatal(err)
	}
	got := make([][]Message, streams)
	for {
		msgs, _, err := c.Poll(500)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) == 0 {
			return got
		}
		for _, m := range msgs {
			got[m.Stream] = append(got[m.Stream], m)
		}
	}
}

// sameMessages fails unless want, grouped by stream, is exactly got.
func sameMessages(t testing.TB, want []Message, got [][]Message) {
	t.Helper()
	next := make([]int, len(got))
	for _, m := range want {
		i := next[m.Stream]
		if i >= len(got[m.Stream]) || got[m.Stream][i].Offset != m.Offset || string(got[m.Stream][i].Value) != string(m.Value) {
			t.Fatalf("acked %s/%d offset %d value %q is not what the consumer read there", m.Topic, m.Stream, m.Offset, m.Value)
		}
		next[m.Stream]++
	}
	for st, n := range next {
		if n != len(got[st]) {
			t.Fatalf("stream %d holds %d messages, %d were acked", st, len(got[st]), n)
		}
	}
}

// TestProduceDuringRescale (-race): one producer sends while the fleet
// cycles 2→3→4 workers and one worker flips down and up. Every ack's
// offset is the next one of its stream, from 0, and a catch-up consumer
// reads back exactly the acked set: a send sees the old fleet or the new
// one, never a mix. A second reader resolves owners straight off the
// snapshot beside the mutators — the lookup the produce path does, with
// nothing in front of it for the race detector to hide behind.
func TestProduceDuringRescale(t *testing.T) {
	const streams = 4
	s, _, keys := sendRig(t, 2, streams)
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.SetWorkerCount(2 + i%3)
			s.SetWorkerDown(i%2, true)
			s.SetWorkerDown(i%2, false)
		}
	}()
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for i := 0; i < 20000; i++ {
			tr := s.routes.Load().topics["t"]
			if w := tr.owners[i%streams]; w == nil || w.ep == "" {
				t.Error("snapshot holds a stream without an owner")
				return
			}
		}
	}()
	p := s.Producer("rescale")
	next := make([]int64, streams)
	var acked []Message
	for i := 0; i < 3000; i++ {
		m, _, err := p.Send("t", keys[i%len(keys)], []byte(fmt.Sprintf("v%04d", i)))
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if m.Offset != next[m.Stream] {
			t.Fatalf("send %d acked stream %d offset %d, want %d", i, m.Stream, m.Offset, next[m.Stream])
		}
		next[m.Stream]++
		acked = append(acked, m)
	}
	readers.Wait()
	close(stop)
	churn.Wait()
	sameMessages(t, acked, drain(t, s, "g", streams))
}

// ownerByRule is the routing rule restated as the snapshot's oracle:
// stream idx's home is worker idx % n while up; otherwise the up worker
// whose fnv-64a hash of "topic/idx\x00id" is highest; with no worker up,
// worker 0.
func ownerByRule(s *Service, topic string, idx int) *Worker {
	s.mu.Lock()
	defer s.mu.Unlock()
	if home := s.workers[idx%len(s.workers)]; !home.down {
		return home
	}
	var best *Worker
	var bestScore uint64
	for _, w := range s.workers {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s/%d\x00%d", topic, idx, w.id)
		if score := h.Sum64(); !w.down && (best == nil || score > bestScore) {
			best, bestScore = w, score
		}
	}
	if best == nil {
		return s.workers[0]
	}
	return best
}

// TestRoutesFollowEveryMutator: after each mutator that can change who
// serves a stream — a topic created during an outage and the
// all-workers-down SetWorkerDown included — the published snapshot names
// the owner the rule names, the dispatcher KV holds one assign/ record
// per routed stream, naming its routed owner, and a returned moved
// counts exactly the streams whose owner changed.
func TestRoutesFollowEveryMutator(t *testing.T) {
	const streams = 6
	s, _, _ := sendRig(t, 3, streams)
	var owners map[string]int
	check := func(after string) {
		t.Helper()
		rt := s.routes.Load()
		for topic, tr := range rt.topics {
			for i, got := range tr.owners {
				if want := ownerByRule(s, topic, i); got != want {
					t.Fatalf("after %s: %s/%d is routed to worker %d, the rule says %d", after, topic, i, got.id, want.id)
				}
				if rec, _ := s.meta.Get([]byte("assign/" + streamKey(topic, i))); string(rec) != strconv.Itoa(got.id) {
					t.Fatalf("after %s: %s/%d is routed to worker %d, its assign/ record says %q", after, topic, i, got.id, rec)
				}
			}
		}
		if _, ok := rt.topics["t"]; !ok {
			t.Fatalf("after %s: topic t is gone from the snapshot", after)
		}
		owners = snapshotAssignments(s)
		records := 0
		s.meta.Scan([]byte("assign/"), []byte("assign0"), func(_, _ []byte) bool { records++; return true })
		if records != len(owners) {
			t.Fatalf("after %s: %d assign/ records for %d routed streams", after, records, len(owners))
		}
	}
	moves := func(after string, moved int) {
		t.Helper()
		was := owners
		check(after)
		changed := 0
		for k, id := range owners {
			if old, ok := was[k]; !ok || old != id {
				changed++
			}
		}
		if moved != changed {
			t.Fatalf("after %s: moved %d, but %d streams changed owner", after, moved, changed)
		}
	}
	down := func(after string, id int, down bool) {
		t.Helper()
		moved, _ := s.SetWorkerDown(id, down)
		moves(after, moved)
	}
	check("CreateTopic")
	down("one worker down", 1, true)
	if err := s.CreateTopic(TopicConfig{Name: "v", StreamNum: streams}); err != nil {
		t.Fatal(err)
	}
	check("a topic created while worker 1 is down")
	down("a second worker down", 0, true)
	down("worker 1 back while worker 0 is down", 1, false)
	down("worker 1 down again", 1, true)
	down("every worker down", 2, true)
	down("one worker back", 2, false)
	down("worker 0 back", 0, false)
	down("all back", 1, false)
	moved, _ := s.SetWorkerCount(5)
	moves("SetWorkerCount(5)", moved)
	down("SetWorkerDown(3) after the rescale", 3, true)
	if err := s.CreateTopic(TopicConfig{Name: "u", StreamNum: 2}); err != nil {
		t.Fatal(err)
	}
	check("a second topic")
	if err := s.DeleteTopic("u"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.routes.Load().topics["u"]; ok {
		t.Fatal("deleted topic still routed")
	}
	check("DeleteTopic")
}
