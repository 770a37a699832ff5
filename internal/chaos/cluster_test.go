package chaos

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sort"
	"testing"
	"time"

	"streamlake"
)

// TestClusterFailoverChaos: randomized node kills and revives —
// including the metadata leader — break none of the invariants: no
// acked write lost, nothing duplicated, every ack in the replicated
// metadata log, committed logs agree.
func TestClusterFailoverChaos(t *testing.T) {
	t.Parallel()
	rep := runChecked(t, Config{Seed: 3, Events: 400}, false)
	requireLive(t, rep, "failover.nodeKills", "failover.elections", "failover.metaCommits")
	t.Logf("failover chaos: %v", rep.Actors)
}

// TestClusterSplitBrainChaos: metadata-plane splits put the leader in a
// minority; acks may only come from the majority side (an ack the
// minority leader gave is a violation), and healed logs must converge.
func TestClusterSplitBrainChaos(t *testing.T) {
	t.Parallel()
	rep := runChecked(t, Config{Seed: 11, Events: 400}, false)
	requireLive(t, rep, "split-brain.splits", "failover.elections")
}

// TestClusterChaosReplayIsBitIdentical: the cluster fault actors —
// node kills, splits, membership churn — are still a pure function of
// the seed.
func TestClusterChaosReplayIsBitIdentical(t *testing.T) {
	t.Parallel()
	rep := runChecked(t, Config{Seed: 21, Events: 300}, true)
	requireLive(t, rep, "failover.nodeKills", "failover.elections")
}

// drillResult is one scripted failover drill's outcome.
type drillResult struct {
	digest    uint64
	detect    time.Duration // kill → both deaths committed to membership
	unavail   time.Duration // kill → first post-failure ack
	rebalance time.Duration // re-replication elapsed virtual time
	acked     int
}

// runFailoverDrill is the paper's hardest scripted scenario: a 5-node
// cluster loses its metadata leader AND a storage node mid-workload,
// with no revival. Detection, re-election, and re-replication must all
// complete inside their virtual-time budgets, and every acked write
// must remain readable with the exact bytes that were acked.
func runFailoverDrill(t *testing.T, seed uint64) drillResult {
	t.Helper()
	const drillTopic = "drill"
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
	if err := lake.CreateTopic(streamlake.TopicConfig{Name: drillTopic, StreamNum: 4}); err != nil {
		t.Fatal(err)
	}
	prod := lake.Producer("drill-producer")
	acked := map[int]map[int64]string{}
	seq := 0
	send := func() bool {
		seq++
		key := fmt.Sprintf("k%06d", seq)
		msg, _, err := prod.Send(drillTopic, []byte(key), []byte("v"+key))
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

	// Phase 1: healthy traffic.
	for i := 0; i < 60; i++ {
		if !send() {
			t.Fatalf("healthy send %d failed", i)
		}
		if i%8 == 0 {
			lake.Clock().Advance(time.Millisecond)
			cl.Tick()
		}
	}

	// Phase 2: kill the metadata leader and one storage node, together.
	leader := cl.Leader()
	storage := (leader + 2) % 5
	killAt := lake.Clock().Now()
	if err := cl.KillNode(leader); err != nil {
		t.Fatal(err)
	}
	if err := cl.KillNode(storage); err != nil {
		t.Fatal(err)
	}

	// Phase 3: keep the workload running through the failure. Track when
	// membership converges and when the first post-failure ack lands.
	var detect, unavail time.Duration
	for i := 0; i < 400; i++ {
		lake.Clock().Advance(time.Millisecond)
		cl.Tick()
		v := cl.CurrentView()
		if detect == 0 && !v.Alive[leader] && !v.Alive[storage] {
			detect = lake.Clock().Now() - killAt
		}
		if unavail == 0 && send() {
			unavail = lake.Clock().Now() - killAt
		}
		if detect > 0 && unavail > 0 {
			break
		}
	}
	if detect == 0 {
		t.Fatal("node deaths never committed to membership")
	}
	if unavail == 0 {
		t.Fatal("producers never recovered after the failover")
	}

	// Phase 4: more traffic on the survivors, then bounded
	// re-replication. Time advances every iteration so tripped breakers
	// from the outage window cool down and retried sends get through.
	extra := 0
	for i := 0; i < 400 && extra < 60; i++ {
		if send() {
			extra++
		}
		lake.Clock().Advance(time.Millisecond)
		cl.Tick()
	}
	if extra < 60 {
		t.Fatalf("post-failover traffic stalled: only %d acks", extra)
	}
	reb := cl.RunRebalance(2 * time.Second)
	if !reb.Complete {
		t.Fatalf("rebalance incomplete: %d logs, %d stale bytes left", reb.RemainingLogs, reb.RemainingStale)
	}

	// Phase 5: every acked write is readable with the acked bytes, once.
	cons := lake.Consumer("drill-verifier")
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

	// Digest the observable outcome for the replay check.
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
			fmt.Fprintf(d, "%d/%d=%s;", s, off, acked[s][off])
		}
	}
	fmt.Fprintf(d, "detect=%d unavail=%d rebalanced=%d;", detect, unavail, reb.RepairedBytes)
	return drillResult{
		digest:    d.Sum64(),
		detect:    detect,
		unavail:   unavail,
		rebalance: reb.Elapsed,
		acked:     total,
	}
}

// TestClusterRebalanceMovesBytes: when a dead node actually hosts
// durable plog copies, the committed death verdict marks them stale
// and RunRebalance re-replicates them onto survivors. The drill's
// light traffic never fills a 256-record slice, so this test drives a
// single stream past the flush threshold first.
func TestClusterRebalanceMovesBytes(t *testing.T) {
	lake, err := streamlake.Open(streamlake.Config{
		Nodes:        5,
		Workers:      2,
		Seed:         9,
		PLogCapacity: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := lake.Cluster()
	if err := lake.CreateTopic(streamlake.TopicConfig{Name: "bulk", StreamNum: 1}); err != nil {
		t.Fatal(err)
	}
	prod := lake.Producer("bulk-producer")
	payload := bytes.Repeat([]byte("x"), 512)
	for i := 0; i < 600; i++ {
		if _, _, err := prod.Send("bulk", []byte(fmt.Sprintf("k%04d", i)), payload); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if i%32 == 0 {
			lake.Clock().Advance(time.Millisecond)
			cl.Tick()
		}
	}

	// Kill every node hosting a copy of the first durable group — at
	// most 2 of them, to preserve the metadata majority (3 of 5).
	owned := map[int]int{}
	for _, n := range cl.Status().Nodes {
		owned[n.ID] = n.SlicesOwned
	}
	killed := 0
	for id := 0; id < 5 && killed < 2; id++ {
		if owned[id] > 0 {
			if err := cl.KillNode(id); err != nil {
				t.Fatal(err)
			}
			killed++
		}
	}
	if killed == 0 {
		t.Fatal("no node owns a durable slice — the bulk stream never flushed")
	}
	for i := 0; i < 200; i++ {
		lake.Clock().Advance(time.Millisecond)
		cl.Tick()
		if cl.Stats().StaleMarkedByte > 0 {
			break
		}
	}
	if cl.Stats().StaleMarkedByte == 0 {
		t.Fatal("death verdicts committed but no bytes marked stale")
	}

	reb := cl.RunRebalance(2 * time.Second)
	if !reb.Complete {
		t.Fatalf("rebalance incomplete: %+v", reb)
	}
	if reb.RepairedBytes == 0 {
		t.Fatalf("stale bytes marked (%dB) but nothing re-replicated", cl.Stats().StaleMarkedByte)
	}

	// The re-replicated data still reads back in full.
	cons := lake.Consumer("bulk-verifier")
	if err := cons.Subscribe("bulk"); err != nil {
		t.Fatal(err)
	}
	got := 0
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
			if !bytes.Equal(m.Value, payload) {
				t.Fatalf("offset %d re-read mangled after rebalance", m.Offset)
			}
			got++
		}
	}
	if got != 600 {
		t.Fatalf("drained %d of 600 messages after losing %d node(s)", got, killed)
	}
	t.Logf("rebalance: staleMarked=%dB repaired=%dB elapsed=%v",
		cl.Stats().StaleMarkedByte, reb.RepairedBytes, reb.Elapsed)
}

// TestClusterFailoverDrill: the scripted leader-plus-storage-node kill,
// with virtual-time ceilings on detection, producer unavailability, and
// re-replication, and a bit-identical replay.
func TestClusterFailoverDrill(t *testing.T) {
	res := runFailoverDrill(t, 424242)
	if res.acked < 100 {
		t.Fatalf("drill acked only %d writes", res.acked)
	}
	// Detection budget: the detector needs 10ms of silence plus
	// election and commit rounds — 4x the full reaction window is the
	// enforced ceiling.
	if budget := 80 * time.Millisecond; res.detect > budget {
		t.Fatalf("detection took %v, ceiling %v", res.detect, budget)
	}
	if budget := 120 * time.Millisecond; res.unavail > budget {
		t.Fatalf("producers unavailable for %v, ceiling %v", res.unavail, budget)
	}
	if budget := 2 * time.Second; res.rebalance > budget {
		t.Fatalf("re-replication took %v, ceiling %v", res.rebalance, budget)
	}
	// Same seed, same drill, bit for bit.
	again := runFailoverDrill(t, 424242)
	if again.digest != res.digest {
		t.Fatalf("drill replay diverged: %x vs %x", res.digest, again.digest)
	}
	// And a different seed genuinely changes the run.
	other := runFailoverDrill(t, 777)
	if other.digest == res.digest {
		t.Fatal("different seeds produced identical drills")
	}
	t.Logf("drill: acked=%d detect=%v unavail=%v rebalance=%v",
		res.acked, res.detect, res.unavail, res.rebalance)
}

// TestClusterReadmittedNodeKeepsItsCopies: a node declared dead and then
// readmitted comes back with its disks, so the copies its death verdict
// marked stale are whole again without a byte of repair; the stale marks
// only queue re-replication while the node is out.
func TestClusterReadmittedNodeKeepsItsCopies(t *testing.T) {
	lake, err := streamlake.Open(streamlake.Config{Nodes: 5, Workers: 2, Seed: 9, PLogCapacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	cl := lake.Cluster()
	if err := lake.CreateTopic(streamlake.TopicConfig{Name: "bulk", StreamNum: 1}); err != nil {
		t.Fatal(err)
	}
	prod := lake.Producer("bulk-producer")
	for i := 0; i < 600; i++ {
		if _, _, err := prod.Send("bulk", []byte(fmt.Sprintf("k%04d", i)), bytes.Repeat([]byte("x"), 512)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	victim := -1
	for _, n := range cl.Status().Nodes {
		if n.SlicesOwned > 0 && n.ID != cl.Leader() {
			victim = n.ID
			break
		}
	}
	if victim < 0 {
		t.Fatal("no follower owns a durable slice")
	}
	tick := func(until func() bool) {
		for i := 0; i < 200 && !until(); i++ {
			lake.Clock().Advance(time.Millisecond)
			cl.Tick()
		}
	}
	if err := cl.KillNode(victim); err != nil {
		t.Fatal(err)
	}
	tick(func() bool { return cl.Stats().StaleMarkedByte > 0 })
	if lake.Logs().DegradedCount() == 0 {
		t.Fatal("the death verdict marked nothing stale")
	}
	if err := cl.ReviveNode(victim); err != nil {
		t.Fatal(err)
	}
	tick(func() bool { return cl.CurrentView().Alive[victim] })
	if n := lake.Logs().DegradedCount(); n != 0 {
		t.Fatalf("%d logs still degraded after node %d was readmitted with its disks", n, victim)
	}
}
