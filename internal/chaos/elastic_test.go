package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"testing"
	"time"

	"streamlake"
	"streamlake/internal/cluster"
)

// TestClusterElasticChaos: runtime joins and removals interleaved with
// node kills, metadata splits and disk kills break none of the
// invariants (every join inside its movement bound, every change
// committed by settle) — and joins and removals actually commit.
func TestClusterElasticChaos(t *testing.T) {
	t.Parallel()
	rep := runChecked(t, Config{Seed: 7, Events: 600}, false)
	requireLive(t, rep, "elastic.joins", "elastic.removes")
	t.Logf("elastic chaos: %v", rep.Actors)
}

// TestClusterElasticReplayIsBitIdentical: membership churn under fire is
// still a pure function of the seed.
func TestClusterElasticReplayIsBitIdentical(t *testing.T) {
	t.Parallel()
	rep := runChecked(t, Config{Seed: 7, Events: 600}, true)
	requireLive(t, rep, "elastic.joins", "elastic.removes")
}

// TestClusterElasticLargeN: a longer schedule grows the founding nodes
// to the nine-node ceiling with every fault actor on — more nodes, more
// simultaneous failures, same invariants.
func TestClusterElasticLargeN(t *testing.T) {
	t.Parallel()
	rep := runChecked(t, Config{Seed: 101, Events: 900}, false)
	if j := rep.Counters["elastic.joins"]; j != maxNodes-nodes {
		t.Fatalf("%d joins, want %d to reach the %d-node ceiling", j, maxNodes-nodes, maxNodes)
	}
}

// elasticDrillResult is one scripted join-under-fire drill's outcome.
type elasticDrillResult struct {
	digest  uint64
	joinGap time.Duration // join first proposed → first post-commit ack
	moved   int64         // bytes the join's arc migration scheduled
	bound   int64         // (live/(N+1))·(1+slack) at join time
	acked   int
}

// runElasticDrill is the ISSUE's scripted scenario: a 5-node cluster
// takes a runtime join mid-workload while one storage node is dead and
// the metadata plane is briefly split. The join must commit through the
// replicated log (no side channel), move no more bytes than the
// (1/(N+1))·(1+slack) bound, leave every acked write readable exactly
// once, and replay bit-identically.
func runElasticDrill(t *testing.T, seed uint64) elasticDrillResult {
	t.Helper()
	const drillTopic = "elastic"
	lake, err := streamlake.Open(streamlake.Config{
		Nodes:        5,
		Workers:      5,
		Seed:         seed,
		PLogCapacity: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := lake.Cluster()
	if err := lake.CreateTopic(streamlake.TopicConfig{Name: drillTopic, StreamNum: 2}); err != nil {
		t.Fatal(err)
	}
	prod := lake.Producer("elastic-producer")
	payload := bytes.Repeat([]byte("e"), 512)
	acked := map[int]map[int64]string{}
	seq := 0
	send := func() bool {
		seq++
		key := fmt.Sprintf("k%06d", seq)
		msg, _, err := prod.Send(drillTopic, []byte(key), payload)
		if err != nil {
			return false
		}
		m := acked[msg.Stream]
		if m == nil {
			m = map[int64]string{}
			acked[msg.Stream] = m
		}
		if _, dup := m[msg.Offset]; dup {
			t.Fatalf("stream %d offset %d acked twice", msg.Stream, msg.Offset)
		}
		m[msg.Offset] = key
		return true
	}

	// Phase 1: bulk healthy traffic, enough to flush durable slices on
	// every stream — the join has real bytes to rebalance.
	for i := 0; i < 700; i++ {
		if !send() {
			t.Fatalf("healthy send %d failed", i)
		}
		if i%32 == 0 {
			lake.Clock().Advance(time.Millisecond)
			cl.Tick()
		}
	}

	// Phase 2: put the cluster under fire. A storage node dies, and the
	// metadata plane splits with the leader on the minority side.
	leader := cl.Leader()
	storage := (leader + 2) % 5
	if err := cl.KillNode(storage); err != nil {
		t.Fatal(err)
	}
	buddy := (leader + 1) % 5
	if buddy == storage {
		buddy = (leader + 3) % 5
	}
	np := lake.Net()
	minority := map[int]bool{leader: true, buddy: true}
	var links [][2]string
	for a := 0; a < 5; a++ {
		if !minority[a] {
			continue
		}
		for b := 0; b < 5; b++ {
			if minority[b] {
				continue
			}
			ea, eb := fmt.Sprintf("node/%d", a), fmt.Sprintf("node/%d", b)
			np.Partition(ea, eb)
			np.Partition(eb, ea)
			links = append(links, [2]string{ea, eb}, [2]string{eb, ea})
		}
	}

	// Phase 3: propose the join while the split stands. The minority
	// leader can admit the learner (its endpoint is reachable) but can
	// never commit the promotion — there is no quorum on its side, and
	// no side channel to cheat through.
	joinStart := lake.Clock().Now()
	if err := cl.ProposeJoin(5); err == nil {
		t.Fatal("join committed through a minority-side leader")
	}
	for i := 0; i < 40; i++ {
		send() // failures are legitimate while the split stands
		lake.Clock().Advance(time.Millisecond)
		cl.Tick()
	}
	for _, p := range links {
		np.Heal(p[0], p[1])
	}

	// Phase 4: with the split healed, the join must commit — either the
	// retried proposal lands, or the original entry (parked in the old
	// leader's log) commits through reconciliation once a quorum leader
	// stands, in which case the retry reports the node already exists.
	joined := false
	for i := 0; i < 400 && !joined; i++ {
		lake.Clock().Advance(time.Millisecond)
		cl.Tick()
		if err := cl.ProposeJoin(5); err == nil || errors.Is(err, cluster.ErrNodeExists) {
			vv := cl.CurrentView()
			joined = vv.Nodes > 5 && !vv.Joining[5] && !vv.Removed[5]
		}
	}
	if !joined {
		t.Fatal("join never committed after the split healed")
	}
	rep := cl.LastJoin()
	if rep.MovedBytes > rep.BoundBytes {
		t.Fatalf("join moved %dB, bound %dB", rep.MovedBytes, rep.BoundBytes)
	}
	v := cl.CurrentView()
	if v.Nodes != 6 || v.Joining[5] || !v.Alive[5] {
		t.Fatalf("join committed but view disagrees: %+v", v)
	}

	// The join is in the replicated log on every live node — including
	// the joiner, which only ever heard about itself via catch-up and
	// reconciliation. The view shows the join applied, so it sits below
	// the applied index: a node whose commit index reaches that index has
	// committed it. Followers converge on leader beats, so allow a few
	// boundaries for the commit index to propagate.
	joinedBy := cl.Applied()
	hasJoin := func(n int) bool { return cl.Status().Nodes[n].Commit >= joinedBy }
	for n := 0; n < 6; n++ {
		if n == storage {
			continue
		}
		for i := 0; i < 100 && !hasJoin(n); i++ {
			lake.Clock().Advance(time.Millisecond)
			cl.Tick()
		}
		if !hasJoin(n) {
			t.Fatalf("node %d's committed log is missing the join entry", n)
		}
	}

	// First post-commit ack bounds the producer gap the join caused.
	var joinGap time.Duration
	for i := 0; i < 400; i++ {
		if send() {
			joinGap = lake.Clock().Now() - joinStart
			break
		}
		lake.Clock().Advance(time.Millisecond)
		cl.Tick()
	}
	if joinGap == 0 {
		t.Fatal("producers never recovered after the join")
	}

	// Phase 5: more traffic on the grown cluster, then bounded
	// re-replication (the dead node's copies plus the join's relocated
	// ones), then the exactly-once audit.
	extra := 0
	for i := 0; i < 400 && extra < 60; i++ {
		if send() {
			extra++
		}
		lake.Clock().Advance(time.Millisecond)
		cl.Tick()
	}
	if extra < 60 {
		t.Fatalf("post-join traffic stalled: only %d acks", extra)
	}
	reb := cl.RunRebalance(2 * time.Second)
	if !reb.Complete {
		t.Fatalf("rebalance incomplete: %d logs, %d stale bytes left", reb.RemainingLogs, reb.RemainingStale)
	}

	cons := lake.Consumer("elastic-verifier")
	if err := cons.Subscribe(drillTopic); err != nil {
		t.Fatal(err)
	}
	seen := map[int]map[int64]string{}
	for empty := 0; empty < 2; {
		msgs, _, err := cons.Poll(256)
		if err != nil {
			t.Fatalf("verifier poll: %v", err)
		}
		if len(msgs) == 0 {
			empty++
			continue
		}
		empty = 0
		for _, m := range msgs {
			sm := seen[m.Stream]
			if sm == nil {
				sm = map[int64]string{}
				seen[m.Stream] = sm
			}
			if _, dup := sm[m.Offset]; dup {
				t.Fatalf("stream %d offset %d delivered twice", m.Stream, m.Offset)
			}
			sm[m.Offset] = string(m.Key)
		}
	}
	total := 0
	for stream, offs := range acked {
		for off, key := range offs {
			got, ok := seen[stream][off]
			if !ok {
				t.Fatalf("acked write lost: stream %d offset %d (%s)", stream, off, key)
			}
			if got != key {
				t.Fatalf("acked write mangled: stream %d offset %d has %q want %q", stream, off, got, key)
			}
			if !cl.ProduceCommitted(drillTopic, stream, off, 1) {
				t.Fatalf("acked write missing from metadata log: stream %d offset %d", stream, off)
			}
			total++
		}
	}

	d := fnv.New64a()
	streams := make([]int, 0, len(acked))
	for s := range acked {
		streams = append(streams, s)
	}
	sort.Ints(streams)
	for _, s := range streams {
		offs := make([]int64, 0, len(acked[s]))
		for off := range acked[s] {
			offs = append(offs, off)
		}
		sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
		for _, off := range offs {
			fmt.Fprintf(d, "%d/%d;", s, off)
		}
	}
	fmt.Fprintf(d, "moved=%d bound=%d gap=%d rebalanced=%d;",
		rep.MovedBytes, rep.BoundBytes, joinGap, reb.RepairedBytes)
	return elasticDrillResult{
		digest:  d.Sum64(),
		joinGap: joinGap,
		moved:   rep.MovedBytes,
		bound:   rep.BoundBytes,
		acked:   total,
	}
}

// TestClusterElasticDrill: the scripted join-under-fire scenario, with
// enforced ceilings and a bit-identical replay.
func TestClusterElasticDrill(t *testing.T) {
	res := runElasticDrill(t, 424242)
	if res.acked < 700 {
		t.Fatalf("drill acked only %d writes", res.acked)
	}
	if res.moved == 0 {
		t.Fatal("join rebalanced nothing — the drill's bulk phase left no bytes to move")
	}
	if res.moved > res.bound {
		t.Fatalf("join moved %dB, bound %dB", res.moved, res.bound)
	}
	// Producer-gap ceiling: the 40-tick split window plus commit and
	// retry rounds.
	if budget := 120 * time.Millisecond; res.joinGap > budget {
		t.Fatalf("producers gapped %v around the join, ceiling %v", res.joinGap, budget)
	}
	again := runElasticDrill(t, 424242)
	if again.digest != res.digest {
		t.Fatalf("drill replay diverged: %x vs %x", res.digest, again.digest)
	}
	other := runElasticDrill(t, 777)
	if other.digest == res.digest {
		t.Fatal("different seeds produced identical drills")
	}
	t.Logf("elastic drill: acked=%d moved=%dB bound=%dB gap=%v",
		res.acked, res.moved, res.bound, res.joinGap)
}
