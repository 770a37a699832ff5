package streamobj

import (
	"fmt"
	"testing"

	"streamlake/internal/plog"
	"streamlake/internal/pool"
	"streamlake/internal/sim"
)

func TestReclaimThroughFreesDrainedLogs(t *testing.T) {
	clock := sim.NewClock()
	p := pool.New("rec", clock, sim.NVMeSSD, 6, 4<<20)
	mgr := plog.NewManager(p, 32<<10) // small logs roll quickly
	store := NewStore(clock, mgr)
	o, _ := store.Create(CreateOptions{Topic: "t"})
	for i := 0; i < 3000; i++ {
		o.Append([]Record{{Key: []byte("k"), Value: []byte(fmt.Sprintf("v%06d", i))}}, "p", int64(i+1))
	}
	o.Flush()
	logsBefore := mgr.Count()
	if logsBefore < 2 {
		t.Fatalf("test premise: need multiple logs, have %d", logsBefore)
	}
	// Reclamation happens at PLog granularity: the watermark must cover
	// every slice the chain's first log holds before that log can go.
	o.mu.Lock()
	firstLog := o.slices[0].loc.Log
	var boundary int64
	for _, e := range o.slices {
		if e.loc.Log == firstLog {
			boundary = e.base + int64(e.count)
		}
	}
	o.mu.Unlock()
	// One record short of the boundary: the log still holds live data.
	freed, err := o.ReclaimThrough(boundary - 1)
	if err != nil {
		t.Fatal(err)
	}
	if freed != 0 {
		t.Fatalf("freed %d from a log with a live record", freed)
	}
	// At the boundary the first log is fully drained and destroyed.
	freed, err = o.ReclaimThrough(boundary)
	if err != nil {
		t.Fatal(err)
	}
	if freed == 0 {
		t.Fatal("nothing freed")
	}
	if mgr.Count() >= logsBefore {
		t.Fatalf("no logs destroyed: %d -> %d", logsBefore, mgr.Count())
	}
	// Records beyond the reclaim point stay readable.
	recs, _, err := o.Read(boundary, ReadCtrl{MaxRecords: 5})
	if err != nil || len(recs) != 5 || recs[0].Offset != boundary {
		t.Fatalf("post-reclaim read: %d recs %v", len(recs), err)
	}
	// Appends continue with correct offsets.
	off, _, err := o.Append([]Record{{Key: []byte("k"), Value: []byte("new")}}, "p", 9001)
	if err != nil || off != 3000 {
		t.Fatalf("append after reclaim: off=%d %v", off, err)
	}
	// Full reclaim of everything persisted so far.
	o.Flush()
	if _, err := o.ReclaimThrough(o.End()); err != nil {
		t.Fatal(err)
	}
	if got := shapeOf(o).Slices; got != 0 {
		t.Fatalf("slices left after full reclaim: %d", got)
	}
}

func TestReclaimThroughPartialLogKept(t *testing.T) {
	clock := sim.NewClock()
	p := pool.New("rec2", clock, sim.NVMeSSD, 6, 4<<20)
	mgr := plog.NewManager(p, 1<<20) // one big log holds everything
	store := NewStore(clock, mgr)
	o, _ := store.Create(CreateOptions{Topic: "t"})
	for i := 0; i < 600; i++ {
		o.Append([]Record{{Key: []byte("k"), Value: []byte("v")}}, "p", int64(i+1))
	}
	o.Flush()
	// A watermark in the middle of a slice: the slice (and its log)
	// still holds unconverted records, so nothing may be reclaimed from
	// it.
	freed, err := o.ReclaimThrough(100)
	if err != nil {
		t.Fatal(err)
	}
	if freed != 0 {
		t.Fatalf("freed %d from a slice with live records", freed)
	}
	if _, _, err := o.Read(0, ReadCtrl{MaxRecords: 1}); err != nil {
		t.Fatalf("read below mid-slice watermark should still work: %v", err)
	}
}

func TestSCMCacheEviction(t *testing.T) {
	s, _ := newStore(t)
	o, _ := s.Create(CreateOptions{Topic: "t", SCMCache: true})
	// Write far more than cacheSlices slices.
	for i := 0; i < (cacheSlices+10)*SliceRecords; i++ {
		o.Append([]Record{{Key: []byte("k"), Value: []byte("v")}}, "p", int64(i+1))
	}
	o.mu.Lock()
	cached := len(o.cache)
	o.mu.Unlock()
	if cached > cacheSlices {
		t.Fatalf("cache grew to %d slices, cap %d", cached, cacheSlices)
	}
	// Evicted slices still readable (from PLogs, at SSD cost).
	recs, _, err := o.Read(0, ReadCtrl{MaxRecords: 3})
	if err != nil || len(recs) != 3 {
		t.Fatalf("read of evicted slice: %v", err)
	}
}

func TestReadCostsReflectTiering(t *testing.T) {
	// A read served from persisted slices charges SSD-class time; the
	// open buffer is free. This is what makes recent data cheap.
	s, _ := newStore(t)
	o, _ := s.Create(CreateOptions{Topic: "t"})
	for i := 0; i < SliceRecords+10; i++ {
		o.Append([]Record{{Key: []byte("k"), Value: []byte("v")}}, "p", int64(i+1))
	}
	_, costPersisted, err := o.Read(0, ReadCtrl{MaxRecords: 10})
	if err != nil {
		t.Fatal(err)
	}
	_, costBuffer, err := o.Read(int64(SliceRecords), ReadCtrl{MaxRecords: 5})
	if err != nil {
		t.Fatal(err)
	}
	if costPersisted <= costBuffer {
		t.Fatalf("persisted read %v not dearer than buffer read %v", costPersisted, costBuffer)
	}
}
