package kv

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"streamlake/internal/sim"
)

func TestPutGetDelete(t *testing.T) {
	db := Open(nil)
	db.Put([]byte("a"), []byte("1"))
	v, ok := db.Get([]byte("a"))
	if !ok || string(v) != "1" {
		t.Fatalf("get: %q %v", v, ok)
	}
	if _, ok := db.Get([]byte("missing")); ok {
		t.Fatal("phantom key")
	}
	db.Delete([]byte("a"))
	if _, ok := db.Get([]byte("a")); ok {
		t.Fatal("get after delete")
	}
	// Overwrite.
	db.Put([]byte("b"), []byte("x"))
	db.Put([]byte("b"), []byte("y"))
	v, _ = db.Get([]byte("b"))
	if string(v) != "y" {
		t.Fatalf("overwrite: %q", v)
	}
}

func TestScanOrderedAndBounded(t *testing.T) {
	db := Open(nil)
	keys := []string{"b", "d", "a", "e", "c"}
	for _, k := range keys {
		db.Put([]byte(k), []byte("v-"+k))
	}
	db.Put([]byte("bb"), []byte("v-bb"))
	db.Delete([]byte("d"))

	var got []string
	db.Scan([]byte("a"), []byte("e"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	want := []string{"a", "b", "bb", "c"}
	if len(got) != len(want) {
		t.Fatalf("scan got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan got %v, want %v", got, want)
		}
	}
	// Early stop.
	n := 0
	db.Scan(nil, nil, func(k, v []byte) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("early stop scanned %d", n)
	}
}

func TestScanMayDeleteWhatItVisits(t *testing.T) {
	// The write cache's flush: delete every key of a prefix from inside
	// the scan that visits it.
	db := Open(nil)
	for _, k := range []string{"w/3", "w/1", "x/0", "w/2", "v/9", "w/10"} {
		db.Put([]byte(k), []byte("v"))
	}
	var got []string
	db.Scan([]byte("w/"), []byte("w0"), func(k, v []byte) bool {
		got = append(got, string(k))
		db.Delete(k)
		return true
	})
	if want := []string{"w/1", "w/10", "w/2", "w/3"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("visited %v, want %v", got, want)
	}
	left := 0
	db.Scan([]byte("w/"), []byte("w0"), func(k, v []byte) bool { left++; return true })
	if left != 0 {
		t.Fatalf("%d keys left in the range", left)
	}
	for _, k := range []string{"v/9", "x/0"} {
		if _, ok := db.Get([]byte(k)); !ok {
			t.Fatalf("%s outside the range was lost", k)
		}
	}
}

func TestCompareAndSwap(t *testing.T) {
	db := Open(nil)
	// Create when absent: expect nil.
	if _, err := db.CompareAndSwap([]byte("ptr"), nil, []byte("s1")); err != nil {
		t.Fatal(err)
	}
	// Stale create fails.
	if _, err := db.CompareAndSwap([]byte("ptr"), nil, []byte("s2")); err != ErrCASMismatch {
		t.Fatalf("stale create: %v", err)
	}
	// Swap with correct expectation.
	if _, err := db.CompareAndSwap([]byte("ptr"), []byte("s1"), []byte("s2")); err != nil {
		t.Fatal(err)
	}
	// Swap with stale expectation fails.
	if _, err := db.CompareAndSwap([]byte("ptr"), []byte("s1"), []byte("s3")); err != ErrCASMismatch {
		t.Fatalf("stale swap: %v", err)
	}
	v, _ := db.Get([]byte("ptr"))
	if string(v) != "s2" {
		t.Fatalf("final value %q", v)
	}
	// A deleted key is absent again: only a nil expectation recreates it.
	db.Delete([]byte("ptr"))
	if _, err := db.CompareAndSwap([]byte("ptr"), []byte("s2"), []byte("s3")); err != ErrCASMismatch {
		t.Fatalf("swap of a deleted key: %v", err)
	}
	if _, err := db.CompareAndSwap([]byte("ptr"), nil, []byte("s3")); err != nil {
		t.Fatalf("recreate after delete: %v", err)
	}
}

func TestCASConcurrentOnlyOneWins(t *testing.T) {
	db := Open(nil)
	db.Put([]byte("head"), []byte("v0"))
	var wins int32
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := db.CompareAndSwap([]byte("head"), []byte("v0"), []byte(fmt.Sprintf("v%d", i+1))); err == nil {
				mu.Lock()
				wins++
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if wins != 1 {
		t.Fatalf("%d CAS winners, want exactly 1", wins)
	}
}

func TestDeviceCostCharging(t *testing.T) {
	dev := sim.NewDeviceOf("scm0", sim.SCM)
	db := Open(dev)
	spec := dev.Spec()
	wal := func(n int64) time.Duration {
		return spec.WriteLatency + time.Duration(float64(n)/float64(spec.WriteBandwidth)*float64(time.Second))
	}
	// Each write charges one WAL append: key and value for a Put or a
	// swap, key and a tombstone byte for a Delete.
	if cost := db.Put([]byte("key"), []byte("value")); cost != wal(8) {
		t.Fatalf("put charged %v, want %v", cost, wal(8))
	}
	if cost, err := db.CompareAndSwap([]byte("key"), []byte("value"), []byte("v2")); err != nil || cost != wal(5) {
		t.Fatalf("swap charged %v (%v), want %v", cost, err, wal(5))
	}
	if cost := db.Delete([]byte("key")); cost != wal(4) {
		t.Fatalf("delete charged %v, want %v", cost, wal(4))
	}
	// A failed swap charges nothing; reads are served from memory.
	if cost, err := db.CompareAndSwap([]byte("key"), []byte("v2"), []byte("v3")); err != ErrCASMismatch || cost != 0 {
		t.Fatalf("failed swap: %v, %v", cost, err)
	}
	db.Put([]byte("k"), []byte("v"))
	db.Get([]byte("k"))
	db.Scan(nil, nil, func(k, v []byte) bool { return true })
	if st := dev.Stats(); st.WriteOps != 4 || st.WriteBytes != 8+5+4+2 || st.ReadOps != 0 {
		t.Fatalf("device counters: %+v", st)
	}
}

func TestQuickModelConformance(t *testing.T) {
	// Property: the DB behaves like a map[string]string under random
	// put/delete interleavings, and Scan returns keys sorted.
	type op struct {
		Key uint8
		Val uint16
		Del bool
	}
	f := func(ops []op) bool {
		db := Open(nil)
		model := map[string]string{}
		for _, o := range ops {
			k := fmt.Sprintf("key-%d", o.Key%32)
			if o.Del {
				db.Delete([]byte(k))
				delete(model, k)
			} else {
				v := fmt.Sprintf("val-%d", o.Val)
				db.Put([]byte(k), []byte(v))
				model[k] = v
			}
		}
		// Point lookups agree.
		for k, want := range model {
			got, ok := db.Get([]byte(k))
			if !ok || string(got) != want {
				return false
			}
		}
		// Scan agrees and is sorted.
		var scanned []string
		db.Scan(nil, nil, func(k, v []byte) bool {
			scanned = append(scanned, string(k))
			if model[string(k)] != string(v) {
				scanned = append(scanned, "MISMATCH")
			}
			return true
		})
		if len(scanned) != len(model) {
			return false
		}
		return sort.StringsAreSorted(scanned)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentReadersAndWriter(t *testing.T) {
	db := Open(nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			db.Put([]byte(fmt.Sprintf("k%d", i%64)), []byte(fmt.Sprintf("v%d", i)))
			if i%64 == 63 {
				db.Delete([]byte(fmt.Sprintf("k%d", i%7)))
			}
		}
	}()
	for i := 0; i < 500; i++ {
		db.Get([]byte(fmt.Sprintf("k%d", i%64)))
		db.Scan([]byte("k0"), []byte("k5"), func(k, v []byte) bool { return true })
	}
	<-done
}

func BenchmarkKVPut(b *testing.B) {
	db := Open(nil)
	key := make([]byte, 16)
	val := make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key[0], key[1], key[2] = byte(i), byte(i>>8), byte(i>>16)
		db.Put(key, val)
	}
}

func BenchmarkKVGet(b *testing.B) {
	db := Open(nil)
	for i := 0; i < 10000; i++ {
		db.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte("value"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Get([]byte(fmt.Sprintf("key-%05d", i%10000)))
	}
}

func TestConcurrentGetsRaceFree(t *testing.T) {
	db := Open(nil)
	db.Put([]byte("k"), []byte("v"))
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				db.Get([]byte("k"))
				db.Scan(nil, nil, func(k, v []byte) bool { return true })
			}
		}()
	}
	wg.Wait()
	if v, ok := db.Get([]byte("k")); !ok || string(v) != "v" {
		t.Fatalf("after concurrent reads: %q, %v", v, ok)
	}
}
