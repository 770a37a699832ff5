package streamsvc

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"unsafe"

	"streamlake/internal/obs"
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
// Measured as Mallocs and TotalAlloc deltas with the collector off, over
// the same 8 polls replayed in several windows, keeping each counter's
// minimum: the counters are process-wide, and the stop-the-world inside
// ReadMemStats sometimes starts an OS thread whose runtime bookkeeping
// lands in a window. The lake's own allocations repeat in every window;
// the runtime's do not.
func TestPollCostsOneHeaderPerMessage(t *testing.T) {
	const polls, windows = 8, 5
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
	bytes, mallocs, got := int(^uint(0)>>1), ^uint64(0), 0
	for w := 0; w < windows; w++ {
		if err := c.Seek("t", 0, 500); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got = 0
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
		bytes = min(bytes, int(after.TotalAlloc-before.TotalAlloc))
		mallocs = min(mallocs, after.Mallocs-before.Mallocs)
	}
	// A poll allocates its []Message once; at 500 messages that is a
	// large allocation, rounded up to whole 8 KiB pages.
	const perPoll = 8 << 10
	header := int(unsafe.Sizeof(Message{}))
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

// poolBytes sums the bytes the pool's disks have read and written.
func poolBytes(p *pool.Pool) (read, written int64) {
	for i := 0; i < p.DiskCount(); i++ {
		st := p.DiskStats(pool.DiskID(i))
		read += st.ReadBytes
		written += st.WriteBytes
	}
	return read, written
}

// heldBase reports the base of the slice the consumer's cursor on
// stream 0 of its first topic holds, and whether it holds one.
func heldBase(c *Consumer) (int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := reflect.ValueOf(c.subs[0].cursors[0])
	if cur.IsZero() {
		return 0, false
	}
	return cur.FieldByName("base").Int(), true
}

// TestPollBufferHoldsNoBorrows: a consumer pins at most one slice per
// stream, the one its last read stopped inside, and never serves one
// that was reclaimed: its first read after ReclaimThrough lets the
// held bytes go. The read buffer it reuses across polls references no
// slice bytes once PollSpanCtx returns — after a full poll, a poll cut
// short by its deadline mid-read, a poll whose slice read fails, and a
// caught-up poll.
func TestPollBufferHoldsNoBorrows(t *testing.T) {
	// Four 256-record slices, two to each 1 MiB log.
	s, p := pollRig(t, 1, 1024, 2048)
	obj := s.routes.Load().topics["t"].streams[0]
	c := s.Consumer("g")
	if err := c.Subscribe("t"); err != nil {
		t.Fatal(err)
	}
	poll := func(max int, first int64) {
		t.Helper()
		msgs, _, err := c.Poll(max)
		if err != nil || len(msgs) != max || msgs[0].Offset != first {
			t.Fatalf("Poll(%d): %d messages, %v; want %d from offset %d", max, len(msgs), err, max, first)
		}
	}

	poll(300, 0)
	noBorrows(t, c, "full poll")
	if base, ok := heldBase(c); !ok || base != streamobj.SliceRecords {
		t.Fatalf("after reading to offset 300 the cursor holds slice %d (%v), want %d", base, ok, streamobj.SliceRecords)
	}
	reads, _ := poolBytes(p)
	poll(100, 300)
	if now, _ := poolBytes(p); now != reads {
		t.Fatalf("the poll inside the held slice read %d B from the pool", now-reads)
	}

	// A budget that covers one slice load runs out on the next: the
	// rest of the held slice and the next one come back with the
	// deadline error, and the cursor, having passed both, holds none.
	_, oneSlice, err := obj.Read(2*streamobj.SliceRecords, streamobj.ReadCtrl{})
	if err != nil {
		t.Fatal(err)
	}
	rc := resil.NewCtx(s.Clock().Now(), oneSlice+oneSlice/2)
	msgs, _, err := c.PollSpanCtx(500, nil, rc)
	if !errors.Is(err, resil.ErrDeadlineExceeded) || len(msgs) != 3*streamobj.SliceRecords-400 {
		t.Fatalf("deadline poll: %d messages, %v; want %d and the deadline", len(msgs), err, 3*streamobj.SliceRecords-400)
	}
	noBorrows(t, c, "deadline poll")
	if base, ok := heldBase(c); ok {
		t.Fatalf("after passing every slice it read, the cursor still holds slice %d", base)
	}

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

	// Reclaim every log, the held slice's among them, then seek back
	// into that slice: the consumer serves nothing a cursor-less read
	// would not, and lets the held bytes go.
	poll(100, 3*streamobj.SliceRecords)
	if base, ok := heldBase(c); !ok || base != 3*streamobj.SliceRecords {
		t.Fatalf("the cursor holds slice %d (%v), want %d", base, ok, 3*streamobj.SliceRecords)
	}
	if freed, err := obj.ReclaimThrough(obj.End()); err != nil || freed == 0 {
		t.Fatalf("reclaim: %d B freed, %v", freed, err)
	}
	if err := c.Seek("t", 0, 800); err != nil {
		t.Fatal(err)
	}
	want, _, werr := obj.Read(800, streamobj.ReadCtrl{MaxRecords: 500})
	if msgs, _, err = c.Poll(500); len(msgs) != 0 || len(want) != 0 || err != nil || werr != nil {
		t.Fatalf("poll of a reclaimed slice: %d messages, %v; a cursor-less read: %d records, %v; want none", len(msgs), err, len(want), werr)
	}
	if base, ok := heldBase(c); ok {
		t.Fatalf("after a reclaim the cursor still holds slice %d", base)
	}

	if err := c.Seek("t", 0, obj.End()); err != nil {
		t.Fatal(err)
	}
	if msgs, _, err = c.Poll(500); err != nil || len(msgs) != 0 {
		t.Fatalf("caught-up poll: %d messages, %v", len(msgs), err)
	}
	noBorrows(t, c, "caught-up poll")
}

// TestPollReadsEachSliceOnce: draining a two-stream topic with Poll(n)
// reads from the pool exactly the slice bytes flushed to it, one copy of
// each (three-way replication wrote three), whatever n: the slice a
// poll stops inside is not read again by the next.
func TestPollReadsEachSliceOnce(t *testing.T) {
	for _, n := range []int{100, 300, 500, 777} {
		s, p := pollRig(t, 2, 4096, 256)
		c := s.Consumer("g")
		if err := c.Subscribe("t"); err != nil {
			t.Fatal(err)
		}
		got := 0
		for {
			msgs, _, err := c.Poll(n)
			if err != nil {
				t.Fatal(err)
			}
			if len(msgs) == 0 {
				break
			}
			got += len(msgs)
		}
		read, written := poolBytes(p)
		if got != 4096 || 3*read != written {
			t.Fatalf("a Poll(%d) drain returned %d of 4096 messages and read %d B from the pool; the flushed slices are %d B",
				n, got, read, written/3)
		}
	}
}

// TestCursorPollMatchesPlainReads: a consumer, whose reads go through
// one cursor per stream, returns the same messages, offsets and errors
// as cursor-less Object.Read calls from the same offsets — under random
// poll sizes, appends, seeks (backward into the slice the cursor holds
// among them), ReclaimThrough at offsets inside slices and failed
// disks, and after the object is destroyed. At most two of the six
// disks are down at a time and appends wait for all six, so every slice
// keeps a readable copy: beyond the three-copy policy's tolerance a held
// slice is served where a device read fails, which is the point of it.
func TestCursorPollMatchesPlainReads(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, p := pollRig(t, 1, 1500, 200)
		obj := s.routes.Load().topics["t"].streams[0]
		c := s.Consumer("g")
		if err := c.Subscribe("t"); err != nil {
			t.Fatal(err)
		}
		prod := s.Producer("more")
		var off int64
		held := 0
		seek := func(to int64) {
			off = to
			if err := c.Seek("t", 0, off); err != nil {
				t.Fatal(err)
			}
		}
		check := func(step int) error {
			t.Helper()
			max := 1 + rng.Intn(700)
			want, _, werr := obj.Read(off, streamobj.ReadCtrl{MaxRecords: max})
			if werr == streamobj.ErrPastEnd {
				werr = nil // Poll reads a stream past its end as caught up
			}
			sp := new(obs.Span)
			msgs, _, err := c.PollSpanCtx(max, sp, nil)
			held += strings.Count(sp.Tree(), "src=held")
			if fmt.Sprint(err) != fmt.Sprint(werr) || len(msgs) != len(want) {
				t.Fatalf("seed %d step %d: Poll(%d) at %d: %d messages, %v; Read: %d records, %v",
					seed, step, max, off, len(msgs), err, len(want), werr)
			}
			for i, m := range msgs {
				w := want[i]
				if m.Offset != w.Offset || m.Timestamp != w.Timestamp || !bytes.Equal(m.Key, w.Key) || !bytes.Equal(m.Value, w.Value) {
					t.Fatalf("seed %d step %d: message %d is offset %d key %q, Read has offset %d key %q",
						seed, step, i, m.Offset, m.Key, w.Offset, w.Key)
				}
			}
			if len(msgs) > 0 {
				off = msgs[len(msgs)-1].Offset + 1
			}
			return err
		}
		down := map[pool.DiskID]bool{}
		for step := 0; step < 300; step++ {
			switch r := rng.Intn(20); {
			case r < 10:
				check(step)
			case r < 13: // back into what the last polls read: often the held slice
				seek(max(0, off-1-rng.Int63n(300)))
			case r < 14:
				seek(rng.Int63n(obj.End() + 1))
			case r < 16:
				if _, err := obj.ReclaimThrough(rng.Int63n(obj.End() + 1)); err != nil {
					t.Fatal(err)
				}
			case r < 18:
				d := pool.DiskID(rng.Intn(p.DiskCount()))
				if down[d] {
					p.ReviveDisk(d)
					delete(down, d)
				} else if len(down) < 2 {
					p.FailDisk(d)
					down[d] = true
				}
			default:
				for d := range down {
					p.ReviveDisk(d)
					delete(down, d)
				}
				for i := rng.Intn(400); i > 0; i-- {
					if _, _, err := prod.Send("t", []byte(fmt.Sprintf("more-%d", i)), []byte("v")); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if held == 0 {
			t.Fatalf("seed %d: no poll was served from a held slice", seed)
		}
		// Destroy the object while the cursor holds a slice, and read it
		// again: the held bytes must not outlive the object.
		for d := range down {
			p.ReviveDisk(d)
		}
		at := int64(-1)
		for try := 0; try < 100 && at < 0; try++ {
			seek(rng.Int63n(obj.End()))
			if check(-1) == nil {
				if _, ok := heldBase(c); ok {
					at = off - 1 // the last message read, inside the held slice
				}
			}
		}
		if at < 0 {
			t.Fatalf("seed %d: no poll left the cursor holding a slice", seed)
		}
		if err := s.store.Destroy(obj.ID()); err != nil {
			t.Fatal(err)
		}
		seek(at)
		if err := check(-1); err == nil {
			t.Fatalf("seed %d: a poll of a destroyed object at %d succeeded", seed, at)
		}
	}
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
// leg of the ingest workload. device_B/msg is the pool bytes read per
// message polled; a drain that reads each slice once reads about the
// message size.
func BenchmarkPoll(b *testing.B) {
	s, p := pollRig(b, 2, 8192, 1024)
	c := s.Consumer("g")
	if err := c.Subscribe("t"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	before, _ := poolBytes(p)
	polled := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msgs, _, err := c.Poll(500)
		if err != nil {
			b.Fatal(err)
		}
		polled += len(msgs)
		if len(msgs) == 0 {
			c.Seek("t", 0, 0)
			c.Seek("t", 1, 0)
		}
	}
	b.StopTimer()
	after, _ := poolBytes(p)
	b.ReportMetric(float64(after-before)/float64(max(polled, 1)), "device_B/msg")
}
