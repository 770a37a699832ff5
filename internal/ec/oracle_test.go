package ec

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"sync"
	"testing"

	"streamlake/internal/sim"
)

// The byte-at-a-time reference the kernel is tested against: the
// arithmetic internal/ec shipped before the fused tables, kept verbatim.

// mulSliceAdd computes out[i] ^= c * in[i] for all i.
func mulSliceAdd(c byte, in, out []byte) {
	if c == 0 {
		return
	}
	logC := int(gfLog[c])
	for i, v := range in {
		if v != 0 {
			out[i] ^= gfExp[logC+int(gfLog[v])]
		}
	}
}

// oracleEncode returns the k+m stripe of data computed one product at a
// time from the Cauchy rows.
func oracleEncode(k, m int, data [][]byte) [][]byte {
	matrix := buildMatrix(k, m)
	stripe := append([][]byte(nil), data...)
	for i := 0; i < m; i++ {
		p := make([]byte, len(data[0]))
		for j := 0; j < k; j++ {
			mulSliceAdd(matrix[k+i][j], data[j], p)
		}
		stripe = append(stripe, p)
	}
	return stripe
}

func randomShards(r *sim.RNG, k, size int) [][]byte {
	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, size)
		for j := range data[i] {
			data[i][j] = byte(r.Intn(256))
		}
	}
	return data
}

// checkAgainstOracle encodes data with the codec, compares every shard
// with the oracle's, then erases the given shards and checks that
// Reconstruct restores the oracle's stripe.
func checkAgainstOracle(c *Codec, data [][]byte, erased []int) error {
	want := oracleEncode(c.k, c.m, data)
	got, err := c.Encode(data)
	if err != nil {
		return err
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			return fmt.Errorf("Encode: shard %d differs from the oracle", i)
		}
	}
	for _, e := range erased {
		got[e] = nil
	}
	if err := c.Reconstruct(got); err != nil {
		return fmt.Errorf("Reconstruct: %v", err)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			return fmt.Errorf("Reconstruct: shard %d differs from the oracle", i)
		}
	}
	return nil
}

// erasurePatterns returns every subset of {0..n-1} with at most max
// elements when the code is small, and otherwise a seeded sample that
// always includes "all parity", "the first max data shards" and the
// empty pattern.
func erasurePatterns(r *sim.RNG, k, m int) [][]int {
	n := k + m
	if n <= 9 {
		var out [][]int
		for mask := 0; mask < 1<<n; mask++ {
			var p []int
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					p = append(p, i)
				}
			}
			if len(p) <= m {
				out = append(out, p)
			}
		}
		return out
	}
	parity := make([]int, m)
	for i := range parity {
		parity[i] = k + i
	}
	firstData := make([]int, min(m, k))
	for i := range firstData {
		firstData[i] = i
	}
	out := [][]int{nil, parity, firstData}
	for i := 0; i < 24; i++ {
		out = append(out, r.Perm(n)[:1+r.Intn(m)])
	}
	return out
}

func TestKernelMatchesOracle(t *testing.T) {
	codes := []struct{ k, m int }{{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {6, 3}, {10, 1}, {10, 2}, {10, 4}, {4, 9}}
	sizes := []int{0, 1, 7, 8, 9, 63, 64, 65, 4097}
	r := sim.NewRNG(16)
	for _, code := range codes {
		c, err := New(code.k, code.m)
		if err != nil {
			t.Fatal(err)
		}
		patterns := erasurePatterns(r, code.k, code.m)
		for _, size := range sizes {
			data := randomShards(r, code.k, size)
			for _, erased := range patterns {
				if err := checkAgainstOracle(c, data, erased); err != nil {
					t.Fatalf("EC(%d,%d) size %d erased %v: %v", code.k, code.m, size, erased, err)
				}
			}
		}
	}
}

// TestGoldenParity pins the CRC-32C of all six EC(4,2) columns of a
// seeded, ragged input. The values were recorded from the byte-wise
// implementation at the commit before the fused kernel, so stored parity
// is asserted unchanged directly, not only through replay digests.
func TestGoldenParity(t *testing.T) {
	want := [6]uint32{0x1eb601ee, 0xe381707c, 0xffb07b29, 0x02d3ce9a, 0x94e57c4f, 0x340f2385}
	c, _ := New(4, 2)
	r := sim.NewRNG(16)
	data := make([]byte, 1001)
	for i := range data {
		data[i] = byte(r.Intn(256))
	}
	stripe, err := c.Encode(c.Split(data))
	if err != nil {
		t.Fatal(err)
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	for i, s := range stripe {
		if got := crc32.Checksum(s, castagnoli); got != want[i] {
			t.Errorf("column %d: CRC-32C %#08x, want %#08x", i, got, want[i])
		}
	}
}

// checkStreamedParity holds EncodeParity's blocks, joined per row, to the
// parity shards of Encode(Split(data)).
func checkStreamedParity(c *Codec, data []byte) error {
	stripe, err := c.Encode(c.Split(data))
	if err != nil {
		return err
	}
	got := make([][]byte, c.m)
	c.EncodeParity(data, func(parity [][]byte) {
		for p, row := range parity {
			if len(row) > blockLen {
				err = fmt.Errorf("a block of %d positions", len(row))
			}
			got[p] = append(got[p], row...)
		}
	})
	for p := range got {
		if err == nil && !bytes.Equal(got[p], stripe[c.k+p]) {
			err = fmt.Errorf("parity row %d differs from Encode(Split(data))", p)
		}
	}
	return err
}

// TestEncodeParityMatchesEncode: the streamed parity is Encode(Split)'s
// at every length where the layout changes shape — empty, one byte,
// k-1, each shard boundary of small data, each block boundary of the
// column (and every ragged offset around it), and past three blocks.
func TestEncodeParityMatchesEncode(t *testing.T) {
	r := sim.NewRNG(30)
	for _, code := range []struct{ k, m int }{{4, 2}, {10, 4}, {4, 9}} {
		c, err := New(code.k, code.m)
		if err != nil {
			t.Fatal(err)
		}
		k := code.k
		lengths := []int{3*blockLen*k + 1}
		for n := 0; n <= 3*k; n++ {
			lengths = append(lengths, n)
		}
		for b := 1; b <= 3; b++ {
			for n := b*blockLen*k - 2*k; n <= b*blockLen*k+2*k; n++ {
				lengths = append(lengths, n)
			}
		}
		for _, n := range lengths {
			data := randomShards(r, 1, n)[0]
			if err := checkStreamedParity(c, data); err != nil {
				t.Fatalf("EC(%d,%d) %d bytes: %v", k, code.m, n, err)
			}
		}
	}
}

// TestWarmEncodeParityAllocatesNothing: EncodeParity works in the
// codec's idle scratch, so once one call has built it, a call of any
// length allocates nothing. A scratch left holding 0xFF bytes still reads
// as zero past the ragged column's data (TestEncodeParityMatchesEncode
// checks the bytes over many lengths in a row).
func TestWarmEncodeParityAllocatesNothing(t *testing.T) {
	c, _ := New(4, 2)
	ones := bytes.Repeat([]byte{0xFF}, 3*blockLen*4+5)
	var sum byte
	emit := func(parity [][]byte) { sum ^= parity[0][0] }
	c.EncodeParity(ones, emit)
	for _, n := range []int{1, 4097, 2*blockLen*4 + 3, 3*blockLen*4 + 5} {
		if a := testing.AllocsPerRun(20, func() { c.EncodeParity(ones[:n], emit) }); a != 0 {
			t.Errorf("a warm EncodeParity of %d bytes allocated %.0f times", n, a)
		}
		c.EncodeParity(ones, emit)
		if err := checkStreamedParity(c, ones[:n]); err != nil {
			t.Errorf("%d bytes after a scratch of 0xFF: %v", n, err)
		}
	}
}

// sameMemory reports whether a and b are the same bytes, not equal ones.
func sameMemory(a, b []byte) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

func TestSplitAliasesFullShards(t *testing.T) {
	c, _ := New(4, 2)
	for _, n := range []int{0, 1, 3, 5, 16, 1001, 4096} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i*7 + 1)
		}
		shards := c.Split(data)
		size := len(shards[0])
		for i, s := range shards {
			if len(s) != size {
				t.Fatalf("n=%d: shard %d has %d bytes, shard 0 has %d", n, i, len(s), size)
			}
			start, end := i*size, (i+1)*size
			switch {
			case end <= n:
				if !sameMemory(s, data[start:end]) {
					t.Fatalf("n=%d: full shard %d was copied", n, i)
				}
				if cap(s) != size {
					t.Fatalf("n=%d: shard %d has cap %d, an append would write into its neighbour", n, i, cap(s))
				}
			case start < n:
				if sameMemory(s[:1], data[start:start+1]) {
					t.Fatalf("n=%d: ragged shard %d aliases data, so its padding is data's next bytes", n, i)
				}
				if !bytes.Equal(s[:n-start], data[start:]) || !bytes.Equal(s[n-start:], make([]byte, end-n)) {
					t.Fatalf("n=%d: ragged shard %d is not data followed by zeros", n, i)
				}
			default:
				if !bytes.Equal(s, make([]byte, size)) {
					t.Fatalf("n=%d: shard %d past the end of data is not zero", n, i)
				}
			}
		}
		got, err := c.Join(shards, n)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("n=%d: Join(Split(x)) != x (err %v)", n, err)
		}
	}
}

// TestSharedCodecIsConcurrencySafe runs Encode, Reconstruct and
// EncodeParity, whose scratch goroutines pass between them, on the one
// instance New hands out for (4,2) from many goroutines; run under -race.
func TestSharedCodecIsConcurrencySafe(t *testing.T) {
	c1, _ := New(4, 2)
	c2, _ := New(4, 2)
	if &c1.enc.tiles[0] != &c2.enc.tiles[0] {
		t.Fatal("New(4,2) twice built two sets of tables")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := sim.NewRNG(seed)
			for i := 0; i < 50; i++ {
				data := randomShards(r, 4, 1+r.Intn(3000))
				erased := r.Perm(6)[:r.Intn(3)]
				if err := checkAgainstOracle(c1, data, erased); err != nil {
					t.Errorf("goroutine %d: %v", seed, err)
					return
				}
				if err := checkStreamedParity(c1, data[0]); err != nil {
					t.Errorf("goroutine %d, %d bytes streamed: %v", seed, len(data[0]), err)
					return
				}
			}
		}(uint64(g + 1))
	}
	wg.Wait()
}

// TestSharingIsBounded: codes too wide for the budget still work, they
// are just not kept.
func TestSharingIsBounded(t *testing.T) {
	shared.Lock()
	before := shared.bytes
	shared.Unlock()
	c1, err := New(128, 127) // 32 x 32 tiles of 4 KiB: four times the budget
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := New(128, 127)
	if c1 == c2 {
		t.Fatal("a 4 MiB codec was kept for sharing")
	}
	shared.Lock()
	defer shared.Unlock()
	if shared.bytes != before || shared.bytes > sharedTableBudget {
		t.Fatalf("shared table bytes %d -> %d, budget %d", before, shared.bytes, sharedTableBudget)
	}
}

// FuzzEncodeReconstruct derives (k, m), a payload and an erasure set from
// the input, and asserts oracle agreement, the Split/Join round trip and
// the streamed parity.
func FuzzEncodeReconstruct(f *testing.F) {
	f.Add([]byte{3, 1, 0b101, 'h', 'e', 'l', 'l', 'o'})
	f.Add([]byte{9, 3, 0xff, 0xff})
	f.Add([]byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 3 {
			return
		}
		k, m := 1+int(in[0])%12, int(in[1])%10
		sel, payload := in[2], in[3:]
		c, err := New(k, m)
		if err != nil {
			t.Fatal(err)
		}
		// sel seeds which shards go: at most m, possibly none.
		var erased []int
		if m > 0 {
			r := sim.NewRNG(uint64(sel) + 1)
			erased = r.Perm(k + m)[:int(sel)%(m+1)]
		}
		shards := c.Split(payload)
		if err := checkAgainstOracle(c, shards, erased); err != nil {
			t.Fatalf("EC(%d,%d) %d bytes erased %v: %v", k, m, len(payload), erased, err)
		}
		got, err := c.Join(shards, len(payload))
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("EC(%d,%d): Join(Split(x)) != x (err %v)", k, m, err)
		}
		if err := checkStreamedParity(c, payload); err != nil {
			t.Fatalf("EC(%d,%d) %d bytes: %v", k, m, len(payload), err)
		}
	})
}
