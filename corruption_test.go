package streamlake

// Silent-corruption drills: seeded corruption is planted in replicated
// and EC-coded PLog copies mid-workload, and the integrity layer must
// hold the line — consumers never observe a wrong payload byte, the
// scrubber detects every injected corruption within a bounded
// virtual-time window, and repair restores full redundancy.

import (
	"fmt"
	"testing"
	"time"
)

// corruptWorkload publishes total keyed messages, planting one random
// silent corruption at each trigger index and running a background
// scrub pass every scrubEvery messages (0 = none). The periodic scrub
// is what bounds the window in which independent corruptions can stack
// up on the same extent's redundancy set — exactly why production
// scrubbers run continuously. Returns how many corruptions landed.
func corruptWorkload(t *testing.T, lake *Lake, topic string, total int, triggers []int, scrubEvery int) int {
	t.Helper()
	p := lake.Producer("")
	trig := make(map[int]bool, len(triggers))
	for _, i := range triggers {
		trig[i] = true
	}
	injected := 0
	for i := 0; i < total; i++ {
		if trig[i] {
			if _, err := lake.Faults().CorruptRandom("ssd"); err != nil {
				t.Fatalf("corrupt at %d: %v", i, err)
			}
			injected++
		}
		if scrubEvery > 0 && i > 0 && i%scrubEvery == 0 {
			lake.RunScrub()
		}
		if _, _, err := p.Send(topic, []byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	return injected
}

// drainVerify consumes every message from offset zero and checks every
// payload byte: key k<i> must carry value v<i>. This is the
// zero-wrong-bytes assertion — with verification on, a corrupt copy may
// cost a fallback read but must never leak damage into a payload.
func drainVerify(t *testing.T, lake *Lake, topic string, want int) {
	t.Helper()
	c := lake.Consumer("corruption-check")
	if err := c.Subscribe(topic); err != nil {
		t.Fatal(err)
	}
	total := 0
	for {
		msgs, _, err := c.Poll(256)
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
		if len(msgs) == 0 {
			break
		}
		for _, m := range msgs {
			if len(m.Key) < 1 || string(m.Value) != "v"+string(m.Key[1:]) {
				t.Fatalf("wrong payload bytes observed: key=%q value=%q", m.Key, m.Value)
			}
		}
		total += len(msgs)
	}
	if total != want {
		t.Fatalf("consumed %d/%d messages", total, want)
	}
}

// scrubAndVerifyHealed sweeps the whole population, then asserts every
// injected corruption was detected (by a read or the scrubber), repair
// restored full redundancy, and the detect+repair loop fit in a bounded
// virtual-time window.
func scrubAndVerifyHealed(t *testing.T, lake *Lake, injected int) {
	t.Helper()
	before := lake.Clock().Now()
	rep := lake.RunScrub()
	elapsed := lake.Clock().Now() - before
	if rep.LogsScanned == 0 || rep.BytesScanned == 0 {
		t.Fatalf("scrub did not sweep the population: %+v", rep)
	}
	if elapsed <= 0 {
		t.Fatal("scrub consumed no virtual time")
	}
	if elapsed > 30*time.Second {
		t.Fatalf("detect+repair window unbounded: %v of virtual time", elapsed)
	}
	integ := lake.Integrity()
	if integ.Injected != int64(injected) {
		t.Fatalf("injected %d corruptions, plog layer saw %d", injected, integ.Injected)
	}
	// Every injection lands on a healthy copy, so each one must be
	// detected exactly once — by a foreground read's verification or by
	// the scrubber — and quarantined.
	if integ.Mismatches != int64(injected) {
		t.Fatalf("detected %d/%d corruptions: %+v", integ.Mismatches, injected, integ)
	}
	if integ.Quarantined == 0 {
		t.Fatalf("nothing quarantined: %+v", integ)
	}
	if st := lake.Stats(); st.DegradedLogs != 0 || st.StaleBytes != 0 {
		t.Fatalf("redundancy not restored after scrub+repair: %+v", st)
	}
	// The repair work is visible in the services' stats.
	if rs := lake.Repairer().Stats(); rs.RepairedBytes == 0 {
		t.Fatalf("repair stats show no restored bytes: %+v", rs)
	}
	if ss := lake.Scrubber().Stats(); ss.BytesScanned == 0 || ss.Passes == 0 {
		t.Fatalf("scrub stats empty: %+v", ss)
	}
	// A follow-up sweep finds a clean lake.
	again := lake.RunScrub()
	if again.Mismatches != 0 {
		t.Fatalf("second sweep still found corruption: %+v", again)
	}
}

func TestSilentCorruptionReplicatedWorkload(t *testing.T) {
	lake, err := Open(Config{PLogCapacity: 64 << 10, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if err := lake.CreateTopic(TopicConfig{Name: "rep", StreamNum: 2, Redundancy: ReplicateN(3)}); err != nil {
		t.Fatal(err)
	}
	// Streams flush to their PLog chains every 256 records, so with two
	// streams the first corruptible extents exist around message ~512;
	// the drills trigger after that.
	const total = 1500
	injected := corruptWorkload(t, lake, "rep", total, []int{600, 900, 1100, 1300}, 250)
	drainVerify(t, lake, "rep", total)
	scrubAndVerifyHealed(t, lake, injected)
	// The lake keeps serving cleanly after the drill.
	corruptWorkload(t, lake, "rep", 50, nil, 0)
	drainVerify(t, lake, "rep", total+50)
}

func TestSilentCorruptionErasureCodedWorkload(t *testing.T) {
	lake, err := Open(Config{SSDDisks: 8, PLogCapacity: 64 << 10, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	if err := lake.CreateTopic(TopicConfig{Name: "ec", StreamNum: 1, Redundancy: EC(4, 2)}); err != nil {
		t.Fatal(err)
	}
	const total = 1000
	injected := corruptWorkload(t, lake, "ec", total, []int{300, 600, 900}, 250)
	drainVerify(t, lake, "ec", total)
	scrubAndVerifyHealed(t, lake, injected)
	drainVerify(t, lake, "ec", total)
}

// TestBackgroundBitFlipRate runs the drill with a standing per-byte
// corruption rate instead of point injections: corruption accrues with
// the write volume, consumers stay clean, and the scrub loop heals
// everything once the rate is cleared.
func TestBackgroundBitFlipRate(t *testing.T) {
	lake, err := Open(Config{PLogCapacity: 64 << 10, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	if err := lake.CreateTopic(TopicConfig{Name: "rot", StreamNum: 2, Redundancy: ReplicateN(3)}); err != nil {
		t.Fatal(err)
	}
	if err := lake.Faults().SetBitFlipRate("ssd", 2e-4); err != nil {
		t.Fatal(err)
	}
	const total = 1500
	corruptWorkload(t, lake, "rot", total, nil, 250)
	lake.Faults().Clear() // rot stops; the damage stays
	injected := len(lake.Faults().CorruptionLog())
	if injected == 0 {
		t.Fatal("bit-flip rate produced no corruption over the workload")
	}
	if st := lake.Faults().Stats(); st.InjectedCorruptions != int64(injected) {
		t.Fatalf("stats disagree with corruption log: %+v vs %d", st, injected)
	}
	drainVerify(t, lake, "rot", total)
	scrubAndVerifyHealed(t, lake, injected)
}

// TestSilentCorruptionDeterministic replays a full drill from the same
// seed and requires identical corruption placement and stats — the
// reproducibility contract of the fault layer.
func TestSilentCorruptionDeterministic(t *testing.T) {
	run := func() ([]CorruptionEvent, IntegrityStats) {
		lake, err := Open(Config{PLogCapacity: 64 << 10, Seed: 43})
		if err != nil {
			t.Fatal(err)
		}
		if err := lake.CreateTopic(TopicConfig{Name: "det", StreamNum: 2, Redundancy: ReplicateN(3)}); err != nil {
			t.Fatal(err)
		}
		if err := lake.Faults().SetBitFlipRate("ssd", 2e-4); err != nil {
			t.Fatal(err)
		}
		corruptWorkload(t, lake, "det", 800, []int{600, 700}, 250)
		lake.RunScrub()
		return lake.Faults().CorruptionLog(), lake.Integrity()
	}
	evA, stA := run()
	evB, stB := run()
	if len(evA) != len(evB) {
		t.Fatalf("corruption logs diverged: %d vs %d events", len(evA), len(evB))
	}
	for i := range evA {
		if evA[i] != evB[i] {
			t.Fatalf("event %d differs: %v vs %v", i, evA[i], evB[i])
		}
	}
	if stA != stB {
		t.Fatalf("integrity stats diverged: %+v vs %+v", stA, stB)
	}
}
