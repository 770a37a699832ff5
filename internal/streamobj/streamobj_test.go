package streamobj

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"streamlake/internal/plog"
	"streamlake/internal/pool"
	"streamlake/internal/sim"
)

func newStore(t testing.TB) (*Store, *sim.Clock) {
	t.Helper()
	clock := sim.NewClock()
	p := pool.New("sobj", clock, sim.NVMeSSD, 6, 4<<20)
	return NewStore(clock, plog.NewManager(p, 1<<20)), clock
}

func rec(k, v string) Record { return Record{Key: []byte(k), Value: []byte(v)} }

func TestCreateDestroy(t *testing.T) {
	s, _ := newStore(t)
	o, err := s.Create(CreateOptions{Topic: "t1"})
	if err != nil {
		t.Fatal(err)
	}
	if s.Count() != 1 {
		t.Fatal("store lost object")
	}
	if err := s.Destroy(o.ID()); err != nil {
		t.Fatal(err)
	}
	if s.Count() != 0 {
		t.Fatal("destroy left object")
	}
	if err := s.Destroy(o.ID()); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("double destroy: %v", err)
	}
}

func TestAppendAssignsContiguousOffsets(t *testing.T) {
	s, _ := newStore(t)
	o, _ := s.Create(CreateOptions{Topic: "t"})
	off1, _, err := o.Append([]Record{rec("k1", "v1"), rec("k2", "v2")}, "p1", 1)
	if err != nil || off1 != 0 {
		t.Fatalf("append1: %d %v", off1, err)
	}
	off2, _, err := o.Append([]Record{rec("k3", "v3")}, "p1", 2)
	if err != nil || off2 != 2 {
		t.Fatalf("append2: %d %v", off2, err)
	}
	if o.End() != 3 {
		t.Fatalf("end: %d", o.End())
	}
}

func TestReadFromOpenBuffer(t *testing.T) {
	s, _ := newStore(t)
	o, _ := s.Create(CreateOptions{Topic: "t"})
	o.Append([]Record{rec("a", "1"), rec("b", "2"), rec("c", "3")}, "p", 1)
	recs, _, err := o.Read(1, ReadCtrl{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || string(recs[0].Key) != "b" || recs[0].Offset != 1 {
		t.Fatalf("read: %+v", recs)
	}
}

func TestReadAcrossPersistedSlices(t *testing.T) {
	s, _ := newStore(t)
	o, _ := s.Create(CreateOptions{Topic: "t"})
	// Write 600 records: slices at 0..255, 256..511, open buf 512..599.
	for i := 0; i < 600; i++ {
		if _, _, err := o.Append([]Record{rec(fmt.Sprintf("k%04d", i), fmt.Sprintf("v%04d", i))}, "p", int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	st := shapeOf(o)
	if st.Slices != 2 || st.OpenBuf != 600-512 {
		t.Fatalf("stats: %+v", st)
	}
	// Read spanning sealed slice -> open buffer.
	recs, cost, err := o.Read(250, ReadCtrl{MaxRecords: 20})
	if err != nil || cost <= 0 {
		t.Fatalf("read: %v cost=%v", err, cost)
	}
	if len(recs) != 20 {
		t.Fatalf("got %d records", len(recs))
	}
	for i, r := range recs {
		if r.Offset != int64(250+i) || string(r.Value) != fmt.Sprintf("v%04d", 250+i) {
			t.Fatalf("record %d: off=%d val=%q", i, r.Offset, r.Value)
		}
	}
	// Read everything from zero in pages.
	var total int
	off := int64(0)
	for off < o.End() {
		recs, _, err := o.Read(off, ReadCtrl{MaxRecords: 256})
		if err != nil || len(recs) == 0 {
			t.Fatalf("page read at %d: %v (%d recs)", off, err, len(recs))
		}
		total += len(recs)
		off = recs[len(recs)-1].Offset + 1
	}
	if total != 600 {
		t.Fatalf("paged through %d records", total)
	}
}

func TestReadLimits(t *testing.T) {
	s, _ := newStore(t)
	o, _ := s.Create(CreateOptions{Topic: "t"})
	for i := 0; i < 10; i++ {
		o.Append([]Record{rec("key", "0123456789")}, "p", int64(i+1))
	}
	recs, _, _ := o.Read(0, ReadCtrl{MaxRecords: 3})
	if len(recs) != 3 {
		t.Fatalf("MaxRecords: got %d", len(recs))
	}
}

func TestReadPastEndAndCaughtUp(t *testing.T) {
	s, _ := newStore(t)
	o, _ := s.Create(CreateOptions{Topic: "t"})
	o.Append([]Record{rec("a", "1")}, "p", 1)
	if _, _, err := o.Read(5, ReadCtrl{}); !errors.Is(err, ErrPastEnd) {
		t.Fatalf("past end: %v", err)
	}
	recs, _, err := o.Read(1, ReadCtrl{}) // exactly at end: caught up
	if err != nil || recs != nil {
		t.Fatalf("caught up: %v %v", recs, err)
	}
	if _, _, err := o.Read(-1, ReadCtrl{}); !errors.Is(err, ErrPastEnd) {
		t.Fatalf("negative offset: %v", err)
	}
}

func TestIdempotentProducer(t *testing.T) {
	s, _ := newStore(t)
	o, _ := s.Create(CreateOptions{Topic: "t"})
	batch := []Record{rec("k", "v")}
	o.Append(batch, "producer-1", 7)
	// Network failure: the producer retries the same sequence.
	o.Append(batch, "producer-1", 7)
	o.Append(batch, "producer-1", 7)
	if o.End() != 1 {
		t.Fatalf("duplicates appended: end=%d", o.End())
	}
	// A different producer with the same seq is independent.
	o.Append(batch, "producer-2", 7)
	if o.End() != 2 {
		t.Fatalf("independent producer blocked: end=%d", o.End())
	}
	// Higher seq goes through.
	o.Append(batch, "producer-1", 8)
	if o.End() != 3 {
		t.Fatalf("next seq blocked: end=%d", o.End())
	}
}

func TestStrictOrdering(t *testing.T) {
	s, _ := newStore(t)
	o, _ := s.Create(CreateOptions{Topic: "t"})
	for i := 0; i < 1000; i++ {
		o.Append([]Record{rec(fmt.Sprintf("k%d", i), fmt.Sprintf("%d", i))}, "p", int64(i+1))
	}
	var prev int64 = -1
	off := int64(0)
	for off < o.End() {
		recs, _, err := o.Read(off, ReadCtrl{MaxRecords: 100})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if r.Offset != prev+1 {
				t.Fatalf("ordering broken at %d -> %d", prev, r.Offset)
			}
			prev = r.Offset
		}
		off = prev + 1
	}
}

func TestQuotaThrottling(t *testing.T) {
	s, clock := newStore(t)
	o, _ := s.Create(CreateOptions{Topic: "t", QuotaPerSec: 100})
	clock.Advance(time.Second) // fill the bucket
	for i := 0; i < 100; i++ {
		if _, _, err := o.Append([]Record{rec("k", "v")}, "p", int64(i+1)); err != nil {
			t.Fatalf("append %d within quota: %v", i, err)
		}
	}
	if _, _, err := o.Append([]Record{rec("k", "v")}, "p", 200); !errors.Is(err, ErrThrottled) {
		t.Fatalf("over quota: %v", err)
	}
	// Virtual time passes; tokens refill.
	clock.Advance(500 * time.Millisecond)
	for i := 0; i < 50; i++ {
		if _, _, err := o.Append([]Record{rec("k", "v")}, "p", int64(300+i)); err != nil {
			t.Fatalf("append after refill: %v", err)
		}
	}
	if _, _, err := o.Append([]Record{rec("k", "v")}, "p", 400); !errors.Is(err, ErrThrottled) {
		t.Fatal("bucket should be empty again")
	}
}

func TestSCMCacheLatency(t *testing.T) {
	s, _ := newStore(t)
	cached, _ := s.Create(CreateOptions{Topic: "cached", SCMCache: true})
	plain, _ := s.Create(CreateOptions{Topic: "plain"})
	var cachedCost, plainCost time.Duration
	for i := 0; i < 512; i++ {
		batch := []Record{rec(fmt.Sprintf("k%d", i), "0123456789abcdef")}
		_, c1, err := cached.Append(batch, "p", int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		cachedCost += c1
		_, c2, err := plain.Append(batch, "p", int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		plainCost += c2
	}
	// SCM ack path must be cheaper than the SSD persistence path — the
	// Figure 14(a) effect.
	if cachedCost >= plainCost {
		t.Fatalf("SCM cache did not reduce ack latency: scm=%v ssd=%v", cachedCost, plainCost)
	}
	// Reads of recent slices hit the cache and cost SCM, not SSD time.
	recsC, costC, err := cached.Read(0, ReadCtrl{MaxRecords: 256})
	if err != nil || len(recsC) != 256 {
		t.Fatalf("cached read: %v", err)
	}
	recsP, costP, err := plain.Read(0, ReadCtrl{MaxRecords: 256})
	if err != nil || len(recsP) != 256 {
		t.Fatalf("plain read: %v", err)
	}
	if costC >= costP {
		t.Fatalf("cached read %v not faster than plain %v", costC, costP)
	}
}

func TestFlushShortSlice(t *testing.T) {
	s, _ := newStore(t)
	o, _ := s.Create(CreateOptions{Topic: "t"})
	o.Append([]Record{rec("a", "1"), rec("b", "2")}, "p", 1)
	if _, err := o.Flush(); err != nil {
		t.Fatal(err)
	}
	st := shapeOf(o)
	if st.Slices != 1 || st.OpenBuf != 0 {
		t.Fatalf("stats after flush: %+v", st)
	}
	recs, _, err := o.Read(0, ReadCtrl{})
	if err != nil || len(recs) != 2 || string(recs[1].Value) != "2" {
		t.Fatalf("read after flush: %+v %v", recs, err)
	}
	// Appends continue after a short-slice flush with correct offsets.
	o.Append([]Record{rec("c", "3")}, "p", 2)
	recs, _, _ = o.Read(2, ReadCtrl{})
	if len(recs) != 1 || string(recs[0].Key) != "c" || recs[0].Offset != 2 {
		t.Fatalf("append after flush: %+v", recs)
	}
}

func TestDefaultRedundancyIsTripleReplica(t *testing.T) {
	s, _ := newStore(t)
	o, _ := s.Create(CreateOptions{Topic: "t"})
	if o.opts.Redundancy.Kind != plog.Replicate || o.opts.Redundancy.Replicas != 3 {
		t.Fatalf("default redundancy: %+v", o.opts.Redundancy)
	}
}

func TestSliceCodecRoundTrip(t *testing.T) {
	recs := []Record{
		{Key: []byte("k1"), Value: []byte("v1"), Timestamp: 5 * time.Millisecond},
		{Key: nil, Value: []byte{}, Timestamp: 0},
		{Key: bytes.Repeat([]byte("x"), 300), Value: bytes.Repeat([]byte("y"), 1000), Timestamp: time.Hour},
	}
	enc := encodeSliceInto(nil, recs)
	got, err := walkSlice(nil, enc, 42, 42, len(recs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if !bytes.Equal(got[i].Key, recs[i].Key) || !bytes.Equal(got[i].Value, recs[i].Value) {
			t.Fatalf("record %d payload mismatch", i)
		}
		if got[i].Offset != 42+int64(i) || got[i].Timestamp != recs[i].Timestamp {
			t.Fatalf("record %d meta: %+v", i, got[i])
		}
	}
	if _, err := walkSlice(nil, enc[:3], 0, 0, len(recs)); err == nil {
		t.Fatal("truncated slice accepted")
	}
}

func TestQuickWriteReadAnywhere(t *testing.T) {
	// Property: after writing N records, reading any valid offset
	// returns records starting exactly there, in order.
	f := func(nSel, offSel uint16) bool {
		s, _ := newStore(t)
		o, _ := s.Create(CreateOptions{Topic: "q"})
		n := int(nSel%1500) + 1
		for i := 0; i < n; i++ {
			if _, _, err := o.Append([]Record{rec(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))}, "p", int64(i+1)); err != nil {
				return false
			}
		}
		off := int64(offSel) % int64(n)
		recs, _, err := o.Read(off, ReadCtrl{MaxRecords: 10})
		if err != nil || len(recs) == 0 {
			return false
		}
		for i, r := range recs {
			if r.Offset != off+int64(i) || string(r.Value) != fmt.Sprintf("v%d", off+int64(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestOpenBufferKeepsCapacity: a flush compacts the open-slice buffer in
// place, so after the first slice has grown it to a slice's worth the
// appends of every later slice allocate nothing for it.
func TestOpenBufferKeepsCapacity(t *testing.T) {
	s, _ := newStore(t)
	o, _ := s.Create(CreateOptions{Topic: "t"})
	one := []Record{rec("key", "value")}
	fill := func(n int) {
		for i := 0; i < n; i++ {
			if _, _, err := o.Append(one, "", 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill(SliceRecords)
	for slice := 1; slice < 10; slice++ {
		// AllocsPerRun calls fill once to warm up and once to measure:
		// 200 records into the open slice, short of a flush. A buffer
		// regrown from nothing would double under the measured call.
		if allocs := testing.AllocsPerRun(1, func() { fill(100) }); allocs != 0 {
			t.Fatalf("slice %d: appending into the open slice allocated %.0f times, want 0", slice, allocs)
		}
		fill(SliceRecords - 200) // the last one flushes the slice
	}
	if st := shapeOf(o); st.Slices != 10 || st.OpenBuf != 0 {
		t.Fatalf("stats after 10 full slices: %+v", st)
	}
}

// TestReadSurvivesFlush: Read copies records out of the open buffer, so
// a result taken before a flush is untouched by the flush clearing the
// flushed slots and by later appends reusing them.
func TestReadSurvivesFlush(t *testing.T) {
	s, _ := newStore(t)
	o, _ := s.Create(CreateOptions{Topic: "t"})
	for i := 0; i < 10; i++ {
		o.Append([]Record{rec(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))}, "", 0)
	}
	before, _, err := o.Read(0, ReadCtrl{})
	if err != nil || len(before) != 10 {
		t.Fatalf("read of the open slice: %d records, %v", len(before), err)
	}
	if _, err := o.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		o.Append([]Record{rec("later", "later")}, "", 0)
	}
	for i, r := range before {
		if string(r.Key) != fmt.Sprintf("k%d", i) || string(r.Value) != fmt.Sprintf("v%d", i) || r.Offset != int64(i) {
			t.Fatalf("record %d changed after the flush: %q=%q @%d", i, r.Key, r.Value, r.Offset)
		}
	}
	after, _, err := o.Read(0, ReadCtrl{MaxRecords: 30})
	if err != nil || len(after) != 30 || string(after[9].Key) != "k9" || string(after[10].Key) != "later" {
		t.Fatalf("read across the flushed slice and the open one: %d records, %v", len(after), err)
	}
}

// objShape is what an object holds: the slices it flushed and the
// records it buffers.
type objShape struct{ Slices, OpenBuf int }

func shapeOf(o *Object) objShape {
	o.mu.Lock()
	defer o.mu.Unlock()
	return objShape{len(o.slices), len(o.buf)}
}
