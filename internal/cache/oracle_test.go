package cache

import (
	"bytes"
	"strconv"
	"testing"
)

var (
	// oracleKeys is the key space ordinary operations draw from: small
	// enough that keys are dropped, ghosted and filled again.
	oracleKeys = func() []string {
		var keys []string
		for _, p := range []string{"a/", "b/", "c/"} {
			for i := 0; i < 8; i++ {
				keys = append(keys, p+strconv.Itoa(i))
			}
		}
		return keys
	}()
	oraclePrefixes = []string{"", "a/", "b/", "c/", "a/1", "z"}
	// oracleSizes reach every admission path of a 1 KB DRAM tier: empty,
	// within the small FIFO's share, past it, past a 512 B SCM tier and
	// past DRAM itself.
	oracleSizes = []int{0, 1, 48, 100, 300, 700, 1500}
)

// FuzzCacheOps drives the cache and the container/list cache it replaced
// (refCache, reference_test.go) through the same operations, and after
// every one requires equal returns, equal costs, equal Stats and equal
// SCM device accounting. The first byte picks the tier sizes; then each
// pair of bytes is one operation: Put, Get, Contains, InvalidatePrefix,
// Flush, or a burst of 40 to 9,920 Puts of keys never seen before, which
// is how an input pushes past the ghost list's bound.
func FuzzCacheOps(f *testing.F) {
	var ghostRun []byte
	ghostRun = append(ghostRun, 0)
	for i := 0; i < 8; i++ {
		ghostRun = append(ghostRun, 2<<3, byte(i)) // a/0..a/7, 48 B each
	}
	ghostRun = append(ghostRun, 7, 8) // 40 fresh keys: a/* drop to ghosts
	for i := 0; i < 4; i++ {
		ghostRun = append(ghostRun, 2<<3, byte(i), 3, byte(i)) // re-admitted to main, then hit
	}
	ghostRun = append(ghostRun, 7, 255) // 9,920 fresh keys: past ghostEntries
	for i := 0; i < 8; i++ {
		ghostRun = append(ghostRun, 3<<3, byte(i), 4, byte(i)) // forgotten: probationary again
	}
	f.Add(ghostRun)
	// a/0 is filled twice while in SCM, dropped, re-admitted from its
	// ghost, then heads main when two 700 B ghosts fill it: a re-admitted
	// key starts with no re-references, so it is the one destaged.
	f.Add([]byte{0, 16, 0, 16, 1, 16, 2, 16, 0, 16, 0, 7, 8, 16, 0, 40, 8, 40, 8, 40, 9, 40, 9, 3, 0})
	f.Add([]byte{3, 0, 1, 1 << 3, 2, 3, 1, 4 << 3, 9, 3, 9, 5, 9, 5 << 3, 10, 6, 1, 3, 2, 7, 3, 6 << 3, 4, 7, 0, 3, 1})
	f.Add([]byte{4, 4 << 3, 0, 4 << 3, 1, 4 << 3, 2, 3, 0, 4 << 3, 3, 4 << 3, 4, 3, 1, 4 << 3, 5, 4 << 3, 6, 6, 2, 3, 2})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		cfg := Config{
			DRAMBytes: []int64{1 << 10, 300}[in[0]&1],
			SCMBytes:  []int64{512, 0, 4 << 10}[int(in[0]>>1)%3],
		}
		c, ref := New(cfg), newRef(cfg)
		pattern := make([]byte, 2048)
		for i := range pattern {
			pattern[i] = byte(i*7 + i>>8)
		}
		data := func(key, size int) []byte { return pattern[key : key+size] }
		same := func(op string) {
			t.Helper()
			if got, want := c.Stats(), ref.Stats(); got != want {
				t.Fatalf("%s: stats\n%+v, the model's\n%+v", op, got, want)
			}
			if got, want := c.scm.Stats(), ref.scm.Stats(); got != want {
				t.Fatalf("%s: SCM device %+v, the model's %+v", op, got, want)
			}
		}
		fresh := 0
		for ops := in[1:]; len(ops) >= 2; ops = ops[2:] {
			o, a := ops[0], int(ops[1])
			k := a % len(oracleKeys)
			key := oracleKeys[k]
			switch o % 8 {
			case 0, 1, 2:
				d := data(k, oracleSizes[int(o>>3)%len(oracleSizes)])
				c.Put(key, d)
				ref.Put(key, d)
				same("Put " + key)
			case 3, 4:
				got, cost, ok := c.Get(key)
				want, wcost, wok := ref.Get(key)
				if ok != wok || cost != wcost || !bytes.Equal(got, want) {
					t.Fatalf("Get %s: %d B, %v, %v; the model's %d B, %v, %v", key, len(got), cost, ok, len(want), wcost, wok)
				}
				same("Get " + key)
			case 5:
				if got, want := c.Contains(key), ref.Contains(key); got != want {
					t.Fatalf("Contains %s: %v, the model's %v", key, got, want)
				}
			case 6:
				p := oraclePrefixes[a%len(oraclePrefixes)]
				if got, want := c.InvalidatePrefix(p), ref.InvalidatePrefix(p); got != want {
					t.Fatalf("InvalidatePrefix %q: %d, the model's %d", p, got, want)
				}
				same("InvalidatePrefix " + p)
			case 7:
				if a < 8 {
					if got, want := c.Flush(), ref.Flush(); got != want {
						t.Fatalf("Flush: %d, the model's %d", got, want)
					}
					same("Flush")
					continue
				}
				for n := (a - 7) * 40; n > 0; n-- {
					key := "f/" + strconv.Itoa(fresh)
					d := data(fresh%256, 48)
					fresh++
					c.Put(key, d)
					ref.Put(key, d)
					same("Put " + key)
				}
			}
		}
	})
}
