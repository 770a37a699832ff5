package ec

import (
	"bytes"
	"testing"
	"testing/quick"

	"streamlake/internal/sim"
)

func TestGFFieldAxioms(t *testing.T) {
	// Every nonzero element has an inverse and a*inv(a)==1.
	for a := 1; a < 256; a++ {
		inv := gfInv(byte(a))
		if gfMul(byte(a), inv) != 1 {
			t.Fatalf("inverse broken for %d", a)
		}
	}
	// Distributivity spot-check over random triples.
	r := sim.NewRNG(1)
	for i := 0; i < 1000; i++ {
		a, b, c := byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))
		if gfMul(a, b^c) != gfMul(a, b)^gfMul(a, c) {
			t.Fatalf("distributivity broken for %d,%d,%d", a, b, c)
		}
		if gfMul(a, b) != gfMul(b, a) {
			t.Fatalf("commutativity broken for %d,%d", a, b)
		}
	}
}

func TestNewValidation(t *testing.T) {
	for _, tc := range []struct{ k, m int }{{0, 1}, {-1, 2}, {1, -1}, {200, 100}} {
		if _, err := New(tc.k, tc.m); err == nil {
			t.Fatalf("New(%d,%d) accepted", tc.k, tc.m)
		}
	}
	if _, err := New(4, 2); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeReconstructAllErasurePatterns(t *testing.T) {
	c, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := sim.NewRNG(2)
	data := make([][]byte, 4)
	for i := range data {
		data[i] = make([]byte, 64)
		for j := range data[i] {
			data[i][j] = byte(r.Intn(256))
		}
	}
	stripe, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	// Erase every pair of shards; reconstruction must restore both.
	for a := 0; a < 6; a++ {
		for b := a + 1; b < 6; b++ {
			damaged := make([][]byte, 6)
			for i := range stripe {
				if i == a || i == b {
					continue
				}
				damaged[i] = append([]byte(nil), stripe[i]...)
			}
			if err := c.Reconstruct(damaged); err != nil {
				t.Fatalf("erasures (%d,%d): %v", a, b, err)
			}
			for i := range stripe {
				if !bytes.Equal(damaged[i], stripe[i]) {
					t.Fatalf("erasures (%d,%d): shard %d mismatch", a, b, i)
				}
			}
		}
	}
}

func TestReconstructTooFewShards(t *testing.T) {
	c, _ := New(3, 2)
	stripe := make([][]byte, 5)
	stripe[0] = make([]byte, 8)
	stripe[1] = make([]byte, 8)
	if err := c.Reconstruct(stripe); err != ErrTooFewShards {
		t.Fatalf("err = %v, want ErrTooFewShards", err)
	}
}

func TestReconstructValidation(t *testing.T) {
	c, _ := New(2, 1)
	if err := c.Reconstruct(make([][]byte, 2)); err == nil {
		t.Fatal("wrong stripe width accepted")
	}
	bad := [][]byte{make([]byte, 4), make([]byte, 8), nil}
	if err := c.Reconstruct(bad); err == nil {
		t.Fatal("inconsistent shard sizes accepted")
	}
}

func TestEncodeValidation(t *testing.T) {
	c, _ := New(2, 1)
	if _, err := c.Encode([][]byte{make([]byte, 4)}); err == nil {
		t.Fatal("wrong shard count accepted")
	}
	if _, err := c.Encode([][]byte{make([]byte, 4), make([]byte, 5)}); err == nil {
		t.Fatal("ragged shards accepted")
	}
}

func TestSplitJoinRoundTrip(t *testing.T) {
	c, _ := New(5, 3)
	for _, n := range []int{1, 4, 5, 17, 100, 1000} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i * 7)
		}
		shards := c.Split(data)
		if len(shards) != 5 {
			t.Fatalf("Split made %d shards", len(shards))
		}
		got, err := c.Join(shards, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
	}
}

func TestOverhead(t *testing.T) {
	// Figure 14(d)'s core arithmetic: EC(k, m) stores (k+m)/k of the data
	// where replication stores m+1 copies.
	c, _ := New(10, 2)
	if got := c.Overhead(); got != 1.2 {
		t.Fatalf("EC(10,2) overhead = %v, want 1.2", got)
	}
	c2, _ := New(4, 2)
	if got := c2.Overhead(); got != 1.5 {
		t.Fatalf("EC(4,2) overhead = %v, want 1.5", got)
	}
}

func TestQuickEncodeReconstruct(t *testing.T) {
	// Property: for random data and a random single erasure, a (6,3) code
	// always reconstructs exactly.
	c, err := New(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64, erasureSel uint8) bool {
		r := sim.NewRNG(seed)
		data := make([][]byte, 6)
		for i := range data {
			data[i] = make([]byte, 32)
			for j := range data[i] {
				data[i][j] = byte(r.Intn(256))
			}
		}
		stripe, err := c.Encode(data)
		if err != nil {
			return false
		}
		// Erase three distinct shards chosen from the selector.
		erased := map[int]bool{}
		sel := int(erasureSel)
		for len(erased) < 3 {
			erased[sel%9] = true
			sel = sel*7 + 3
		}
		damaged := make([][]byte, 9)
		for i := range stripe {
			if !erased[i] {
				damaged[i] = append([]byte(nil), stripe[i]...)
			}
		}
		if err := c.Reconstruct(damaged); err != nil {
			return false
		}
		for i := range stripe {
			if !bytes.Equal(damaged[i], stripe[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func benchEncode(b *testing.B, k, m int) {
	c, _ := New(k, m)
	data := randomShards(sim.NewRNG(3), k, 64<<10)
	b.SetBytes(int64(k) * 64 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncode4x2(b *testing.B)  { benchEncode(b, 4, 2) }
func BenchmarkEncode10x4(b *testing.B) { benchEncode(b, 10, 4) }

// BenchmarkEncodeSplit4x2 is the call plog makes per append, at the
// pipeline workload's mean slice flush: 290 KB of contiguous payload.
func BenchmarkEncodeSplit4x2(b *testing.B) {
	c, _ := New(4, 2)
	data := randomShards(sim.NewRNG(3), 1, 290_000)[0]
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(c.Split(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReconstruct4x2 rebuilds two erased data shards, the decode a
// repair of two failed disks runs.
func BenchmarkReconstruct4x2(b *testing.B) {
	c, _ := New(4, 2)
	stripe, err := c.Encode(randomShards(sim.NewRNG(3), 4, 64<<10))
	if err != nil {
		b.Fatal(err)
	}
	damaged := make([][]byte, len(stripe))
	b.SetBytes(4 * 64 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(damaged, stripe)
		damaged[0], damaged[2] = nil, nil
		if err := c.Reconstruct(damaged); err != nil {
			b.Fatal(err)
		}
	}
}
