package kv

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"streamlake/internal/sim"
)

func TestPutGetDelete(t *testing.T) {
	db := Open(Options{})
	if _, err := db.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, _, ok := db.Get([]byte("a"))
	if !ok || string(v) != "1" {
		t.Fatalf("get: %q %v", v, ok)
	}
	if _, _, ok := db.Get([]byte("missing")); ok {
		t.Fatal("phantom key")
	}
	db.Delete([]byte("a"))
	if _, _, ok := db.Get([]byte("a")); ok {
		t.Fatal("get after delete")
	}
	// Overwrite.
	db.Put([]byte("b"), []byte("x"))
	db.Put([]byte("b"), []byte("y"))
	v, _, _ = db.Get([]byte("b"))
	if string(v) != "y" {
		t.Fatalf("overwrite: %q", v)
	}
}

func TestGetAcrossFlush(t *testing.T) {
	db := Open(Options{})
	db.Put([]byte("k1"), []byte("v1"))
	db.Flush()
	db.Put([]byte("k2"), []byte("v2"))
	for _, k := range []string{"k1", "k2"} {
		if v, _, ok := db.Get([]byte(k)); !ok || string(v) != "v"+k[1:] {
			t.Fatalf("get %s after flush: %q %v", k, v, ok)
		}
	}
	// Newest version wins across runs.
	db.Put([]byte("k1"), []byte("v1b"))
	db.Flush()
	if v, _, _ := db.Get([]byte("k1")); string(v) != "v1b" {
		t.Fatalf("version order: %q", v)
	}
	// Tombstone in a newer run hides an older value.
	db.Delete([]byte("k1"))
	db.Flush()
	if _, _, ok := db.Get([]byte("k1")); ok {
		t.Fatal("tombstone not honored across runs")
	}
}

func TestAutoFlushOnMemtableSize(t *testing.T) {
	db := Open(Options{})
	value := make([]byte, 64<<10)
	for i := 0; i < 100; i++ { // 6.4 MB, past the 4 MiB memtable
		db.Put([]byte(fmt.Sprintf("key-%03d", i)), value)
	}
	if len(db.runs) == 0 {
		t.Fatal("no automatic flush happened")
	}
	for i := 0; i < 100; i++ {
		if _, _, ok := db.Get([]byte(fmt.Sprintf("key-%03d", i))); !ok {
			t.Fatalf("key %d lost across auto flush", i)
		}
	}
}

func TestCompactDropsTombstonesAndOldVersions(t *testing.T) {
	db := Open(Options{})
	for i := 0; i < 10; i++ {
		db.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
		db.Flush()
	}
	db.Delete([]byte("k0"))
	db.Put([]byte("k1"), []byte("v2"))
	db.Flush()
	db.Compact()
	if len(db.runs) != 1 {
		t.Fatalf("runs after compact: %d", len(db.runs))
	}
	live := 0
	db.Scan(nil, nil, func(k, v []byte) bool { live++; return true })
	if live != 9 {
		t.Fatalf("live keys: %d, want 9", live)
	}
	if _, _, ok := db.Get([]byte("k0")); ok {
		t.Fatal("deleted key resurrected by compaction")
	}
	if v, _, _ := db.Get([]byte("k1")); string(v) != "v2" {
		t.Fatalf("k1 = %q", v)
	}
}

func TestScanOrderedAndBounded(t *testing.T) {
	db := Open(Options{})
	keys := []string{"b", "d", "a", "e", "c"}
	for _, k := range keys {
		db.Put([]byte(k), []byte("v-"+k))
	}
	db.Flush()
	db.Put([]byte("bb"), []byte("v-bb")) // memtable entry merged into scan
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

func TestCompareAndSwap(t *testing.T) {
	db := Open(Options{})
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
	v, _, _ := db.Get([]byte("ptr"))
	if string(v) != "s2" {
		t.Fatalf("final value %q", v)
	}
	// CAS sees values in flushed runs too.
	db.Flush()
	if _, err := db.CompareAndSwap([]byte("ptr"), []byte("s2"), []byte("s3")); err != nil {
		t.Fatalf("CAS across flush: %v", err)
	}
}

func TestCASConcurrentOnlyOneWins(t *testing.T) {
	db := Open(Options{})
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
	db := Open(Options{Device: dev})
	cost, _ := db.Put([]byte("k"), []byte("v"))
	if cost <= 0 {
		t.Fatal("put did not charge the device")
	}
	// Memtable hit is free (RAM).
	if _, cost, _ := db.Get([]byte("k")); cost != 0 {
		t.Fatalf("memtable hit charged %v", cost)
	}
	db.Flush()
	// Run hit charges one device read.
	if _, cost, ok := db.Get([]byte("k")); !ok || cost <= 0 {
		t.Fatalf("run hit: ok=%v cost=%v", ok, cost)
	}
	if dev.Stats().WriteOps == 0 || dev.Stats().ReadOps == 0 {
		t.Fatalf("device counters: %+v", dev.Stats())
	}
}

func TestQuickModelConformance(t *testing.T) {
	// Property: the DB behaves like a map[string]string under random
	// put/delete/flush interleavings, and Scan returns keys sorted.
	type op struct {
		Key   uint8
		Val   uint16
		Del   bool
		Flush bool
	}
	f := func(ops []op) bool {
		db := Open(Options{})
		model := map[string]string{}
		for _, o := range ops {
			k := fmt.Sprintf("key-%d", o.Key%32)
			if o.Flush {
				db.Flush()
			}
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
			got, _, ok := db.Get([]byte(k))
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
	db := Open(Options{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			db.Put([]byte(fmt.Sprintf("k%d", i%64)), []byte(fmt.Sprintf("v%d", i)))
			if i%64 == 63 {
				db.Flush()
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
	db := Open(Options{})
	key := make([]byte, 16)
	val := make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key[0], key[1], key[2] = byte(i), byte(i>>8), byte(i>>16)
		db.Put(key, val)
	}
}

func BenchmarkKVGet(b *testing.B) {
	db := Open(Options{})
	for i := 0; i < 10000; i++ {
		db.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte("value"))
	}
	db.Flush()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Get([]byte(fmt.Sprintf("key-%05d", i%10000)))
	}
}

func TestConcurrentGetsRaceFree(t *testing.T) {
	db := Open(Options{})
	if _, err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	db.Flush()
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
	if v, _, ok := db.Get([]byte("k")); !ok || string(v) != "v" {
		t.Fatalf("after concurrent reads: %q, %v", v, ok)
	}
}
