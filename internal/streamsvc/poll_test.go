package streamsvc

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"streamlake/internal/plog"
	"streamlake/internal/pool"
	"streamlake/internal/resil"
	"streamlake/internal/sim"
	"streamlake/internal/streamobj"
)

// pollRig is a service with one topic of `streams` streams holding n
// flushed messages of `size`-byte values, and the pool under it.
func pollRig(t testing.TB, streams, n, size int) (*Service, *pool.Pool) {
	t.Helper()
	clock := sim.NewClock()
	p := pool.New("svc", clock, sim.NVMeSSD, 6, 4<<20)
	s := New(clock, streamobj.NewStore(clock, plog.NewManager(p, 1<<20)), 1)
	if err := s.CreateTopic(TopicConfig{Name: "t", StreamNum: streams}); err != nil {
		t.Fatal(err)
	}
	prod := s.Producer("p")
	value := make([]byte, size)
	for i := 0; i < n; i++ {
		if _, _, err := prod.Send("t", []byte(fmt.Sprintf("key-%05d", i)), value); err != nil {
			t.Fatal(err)
		}
	}
	for _, obj := range s.routes.Load().topics["t"].streams {
		if _, err := obj.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return s, p
}

// TestPollCostsOneHeaderPerMessage: Poll(500) over flushed 256-record
// slices makes one allocation, its []Message: the header of each message
// it returns, rounded up to whole pages. The slices are walked in place
// into the consumer's one read buffer, so no record header is allocated.
// Measured as Mallocs and TotalAlloc deltas with the collector off.
func TestPollCostsOneHeaderPerMessage(t *testing.T) {
	const polls = 8
	s, _ := pollRig(t, 1, 500*(polls+1), 64)
	c := s.Consumer("g")
	if err := c.Subscribe("t"); err != nil {
		t.Fatal(err)
	}
	if msgs, _, err := c.Poll(500); err != nil || len(msgs) != 500 { // sizes the read buffer
		t.Fatalf("warm-up poll: %d messages, %v", len(msgs), err)
	}
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := 0
	for i := 0; i < polls; i++ {
		msgs, _, err := c.Poll(500)
		if err != nil {
			t.Fatal(err)
		}
		got += len(msgs)
	}
	runtime.ReadMemStats(&after)
	if got != 500*polls {
		t.Fatalf("%d polls returned %d messages, want %d", polls, got, 500*polls)
	}
	// A poll allocates its []Message once; at 500 messages that is a
	// large allocation, rounded up to whole 8 KiB pages.
	const perPoll = 8 << 10
	header := int(unsafe.Sizeof(Message{}))
	bytes := int(after.TotalAlloc - before.TotalAlloc)
	mallocs := after.Mallocs - before.Mallocs
	if limit := got*header + polls*perPoll; bytes > limit || mallocs > polls {
		t.Fatalf("%d polls of 500 made %d allocations of %d B, %.1f B per message; want <= %d allocations of <= %d B (a %d B Message each, %d B per poll)",
			polls, mallocs, bytes, float64(bytes)/float64(got), polls, limit, header, perPoll)
	}
	t.Logf("%d allocations, %.1f B per message (Message is %d B)", mallocs, float64(bytes)/float64(got), header)
}

// noBorrows fails t if the consumer's read buffer still references a
// key or value anywhere in its capacity.
func noBorrows(t *testing.T, c *Consumer, path string) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, r := range c.recs[:cap(c.recs)] {
		if r.Key != nil || r.Value != nil {
			t.Fatalf("%s: the read buffer still holds record %d's key or value", path, i)
		}
	}
}

// TestPollBufferHoldsNoBorrows: the buffer a consumer reuses across
// polls references no slice bytes once PollCtx returns — after a full
// poll, a caught-up poll, a poll cut short by its deadline mid-read, and
// a poll whose slice read fails. So an idle consumer does not pin the
// extents it last read after ReclaimThrough releases them.
func TestPollBufferHoldsNoBorrows(t *testing.T) {
	s, p := pollRig(t, 1, 1024, 2048)
	obj := s.routes.Load().topics["t"].streams[0]
	c := s.Consumer("g")
	if err := c.Subscribe("t"); err != nil {
		t.Fatal(err)
	}

	msgs, _, err := c.Poll(300)
	if err != nil || len(msgs) != 300 {
		t.Fatalf("poll: %d messages, %v", len(msgs), err)
	}
	noBorrows(t, c, "full poll")

	// A budget that covers one slice load runs out on the next: the
	// first slice's records come back with the deadline error.
	_, oneSlice, err := obj.Read(2*streamobj.SliceRecords, streamobj.ReadCtrl{})
	if err != nil {
		t.Fatal(err)
	}
	rc := resil.NewCtx(s.Clock().Now(), oneSlice+oneSlice/2)
	msgs, _, err = c.PollCtx(500, rc)
	if !errors.Is(err, resil.ErrDeadlineExceeded) || len(msgs) == 0 {
		t.Fatalf("deadline poll: %d messages, %v; want a partial batch and the deadline", len(msgs), err)
	}
	noBorrows(t, c, "deadline poll")

	for i := 0; i < p.DiskCount(); i++ {
		p.FailDisk(pool.DiskID(i))
	}
	if msgs, _, err = c.Poll(500); err == nil {
		t.Fatalf("poll over failed disks returned %d messages and no error", len(msgs))
	}
	noBorrows(t, c, "failed read")
	for i := 0; i < p.DiskCount(); i++ {
		p.ReviveDisk(pool.DiskID(i))
	}

	for {
		if msgs, _, err = c.Poll(500); err != nil {
			t.Fatal(err)
		} else if len(msgs) == 0 {
			break
		}
	}
	noBorrows(t, c, "caught-up poll")
}

// TestPollFollowsSubscribeOrder: a consumer of two topics fills a poll
// from the topic it subscribed to first, every time, and subscribing to
// a topic again keeps its place.
func TestPollFollowsSubscribeOrder(t *testing.T) {
	s := newService(t, 2)
	p := s.Producer("p")
	for _, topic := range []string{"a", "b"} {
		if err := s.CreateTopic(TopicConfig{Name: topic, StreamNum: 1}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if _, _, err := p.Send(topic, []byte("k"), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
	}
	for trial := 0; trial < 64; trial++ {
		first, second := "a", "b"
		if trial%2 == 1 {
			first, second = second, first
		}
		c := s.Consumer(fmt.Sprintf("g%d", trial))
		for _, topic := range []string{first, second, first} {
			if err := c.Subscribe(topic); err != nil {
				t.Fatal(err)
			}
		}
		msgs, _, err := c.Poll(15)
		if err != nil || len(msgs) != 15 {
			t.Fatalf("trial %d: %d messages, %v", trial, len(msgs), err)
		}
		for i, m := range msgs {
			if want := map[bool]string{true: first, false: second}[i < 10]; m.Topic != want {
				t.Fatalf("trial %d (subscribed %s, %s, %s): message %d is from %s, want %s",
					trial, first, second, first, i, m.Topic, want)
			}
		}
	}
}

// BenchmarkPoll drains a two-stream topic of 1 KB messages in Poll(500)
// calls over flushed slices, rewinding when it is caught up: the consume
// leg of the ingest workload.
func BenchmarkPoll(b *testing.B) {
	s, _ := pollRig(b, 2, 8192, 1024)
	c := s.Consumer("g")
	if err := c.Subscribe("t"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msgs, _, err := c.Poll(500)
		if err != nil {
			b.Fatal(err)
		}
		if len(msgs) == 0 {
			c.Seek("t", 0, 0)
			c.Seek("t", 1, 0)
		}
	}
}
