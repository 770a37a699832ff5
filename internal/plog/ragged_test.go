package plog

import (
	"bytes"
	"hash/crc32"
	"testing"

	"streamlake/internal/pool"
	"streamlake/internal/sim"
)

// TestECRaggedTailReconstructBitExact is the regression for the
// EC-reconstruct shard-padding audit: extents whose lengths don't
// divide by K produce ragged final shards (the tail shard is
// zero-padded to the stripe's shard length), and the re-computed
// per-shard checksums (expectedSumLocked) must pad exactly the way the
// encoder (ec.Split) did or verification would misfire on every ragged
// extent. The scenario stacks the hazards: ragged lengths, a degraded
// append (one shard column missing), a corrupted tail extent, and
// repair — the read must return bit-exact bytes at every step.
func TestECRaggedTailReconstructBitExact(t *testing.T) {
	p, m := newTestManager(t, 8)
	l, err := m.Create(EC(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Lengths chosen so len%K cycles through 1..3 and one extent is
	// shorter than K entirely (shard length 1, three padded columns).
	lengths := []int{5, 7, 13, 3, 41}
	var payloads [][]byte
	var offsets []int64
	for i, n := range lengths {
		pl := payload(n, byte(11*i+1))
		off, _, aerr := l.Append(pl)
		if aerr != nil {
			t.Fatal(aerr)
		}
		payloads, offsets = append(payloads, pl), append(offsets, off)
	}
	// Degraded ragged append: one shard column dies, the write lands
	// under EC(4,2)'s two-loss tolerance.
	dead := l.slices[2].Disk
	p.FailDisk(dead)
	pl := payload(9, 99) // 9 % 4 = 1: ragged tail again
	off, _, err := l.Append(pl)
	if err != nil {
		t.Fatalf("degraded ragged append: %v", err)
	}
	payloads, offsets = append(payloads, pl), append(offsets, off)
	p.ReviveDisk(dead)

	// Corrupt the tail extent on the first data shard and read through
	// it: verification must catch the flip and reconstruct bit-exactly
	// from the surviving shards, padding included.
	tail := len(payloads) - 1
	if ok, cerr := l.CorruptCopy(0, tail); cerr != nil || !ok {
		t.Fatalf("CorruptCopy: ok=%v err=%v", ok, cerr)
	}
	for i := range payloads {
		got, _, rerr := l.Read(offsets[i], int64(len(payloads[i])))
		if rerr != nil {
			t.Fatalf("read extent %d: %v", i, rerr)
		}
		if !bytes.Equal(got, payloads[i]) {
			t.Fatalf("extent %d not bit-exact after corruption: got %x want %x", i, got, payloads[i])
		}
	}
	st := l.IntegrityStats()
	if st.Mismatches == 0 {
		t.Fatal("corrupted tail extent was never detected")
	}
	if l.FullyRedundant() {
		t.Fatal("corrupt + degraded columns not tracked as stale")
	}
	if _, _, err := l.RepairStale(); err != nil {
		t.Fatalf("repair: %v", err)
	}
	if !l.FullyRedundant() {
		t.Fatal("repair did not restore full redundancy")
	}
	mismatches := l.IntegrityStats().Mismatches
	for i := range payloads {
		got, _, rerr := l.Read(offsets[i], int64(len(payloads[i])))
		if rerr != nil || !bytes.Equal(got, payloads[i]) {
			t.Fatalf("extent %d not bit-exact after repair: %v", i, rerr)
		}
	}
	if st := l.IntegrityStats(); st.Mismatches != mismatches {
		t.Fatalf("repaired shards failed re-verification: %+v", st)
	}
}

// TestECRaggedTailCompressedRoundTrip is the compression-on property
// extension: the same ragged-tail hazard stack (lengths that don't
// divide by K, a degraded append, tail corruption, repair) run against
// a log whose extents compressed as they migrated to the cold pool. The
// CRC sidecar is keyed over uncompressed bytes, so every step — the
// corrupt-copy detection, the EC reconstruct, the repair, the promote
// back to raw — must behave exactly as it does on a raw log and the
// reads must stay bit-exact throughout.
func TestECRaggedTailCompressedRoundTrip(t *testing.T) {
	p, m := newTestManager(t, 8)
	hdd := newHDDPool(8)
	l, err := m.Create(EC(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	lengths := []int{5, 7, 13, 3, 41, 1027}
	var payloads [][]byte
	var offsets []int64
	for i, n := range lengths {
		pl := payload(n, byte(11*i+1))
		off, _, aerr := l.Append(pl)
		if aerr != nil {
			t.Fatal(aerr)
		}
		payloads, offsets = append(payloads, pl), append(offsets, off)
	}
	// Degraded ragged append before the migration: one shard column is
	// missing, and the compressing migrate must leave that hole a hole.
	dead := l.slices[2].Disk
	p.FailDisk(dead)
	pl := payload(9, 99)
	off, _, err := l.Append(pl)
	if err != nil {
		t.Fatalf("degraded ragged append: %v", err)
	}
	payloads, offsets = append(payloads, pl), append(offsets, off)
	p.ReviveDisk(dead)

	if _, err := l.Migrate(hdd); err != nil {
		t.Fatalf("compressing migrate: %v", err)
	}
	if !l.Compressed() {
		t.Fatal("log not compressed on the cold pool")
	}
	readAll := func(stage string) {
		t.Helper()
		for i := range payloads {
			got, _, rerr := l.Read(offsets[i], int64(len(payloads[i])))
			if rerr != nil {
				t.Fatalf("%s: read extent %d: %v", stage, i, rerr)
			}
			if !bytes.Equal(got, payloads[i]) {
				t.Fatalf("%s: extent %d not bit-exact", stage, i)
			}
		}
	}
	readAll("compressed")

	// Corrupt the tail extent on the first data shard: the compressed
	// read must detect it (CRC over uncompressed bytes) and reconstruct
	// from surviving columns, padding included.
	tail := len(payloads) - 1
	if ok, cerr := l.CorruptCopy(0, tail); cerr != nil || !ok {
		t.Fatalf("CorruptCopy: ok=%v err=%v", ok, cerr)
	}
	readAll("compressed+corrupt")
	if st := l.IntegrityStats(); st.Mismatches == 0 {
		t.Fatal("corrupted tail extent was never detected on the compressed log")
	}
	if l.FullyRedundant() {
		t.Fatal("corrupt + degraded columns not tracked as stale")
	}
	if _, _, err := l.RepairStale(); err != nil {
		t.Fatalf("repair on compressed log: %v", err)
	}
	if !l.FullyRedundant() {
		t.Fatal("repair did not restore full redundancy on the compressed log")
	}
	mismatches := l.IntegrityStats().Mismatches
	readAll("compressed+repaired")
	if st := l.IntegrityStats(); st.Mismatches != mismatches {
		t.Fatalf("repaired compressed shards failed re-verification: %+v", st)
	}
	if res := l.Scrub(); res.Mismatches != 0 {
		t.Fatalf("compressed scrub after repair: %+v", res)
	}

	// Promote back to the hot pool: extents decompress, state clears,
	// and everything still reads bit-exact.
	if _, err := l.Migrate(p); err != nil {
		t.Fatalf("decompressing migrate: %v", err)
	}
	if l.Compressed() {
		t.Fatal("log still compressed after promoting off the cold pool")
	}
	readAll("promoted")
	poolEmpty(t, hdd)
}

// TestExpectedSumMatchesSplitColumn pins the in-place column checksum to
// the encoder's layout directly: for every data column of every extent,
// the CRC taken over the extent's bytes plus zero padding equals the CRC
// of the shard ec.Split produces, for widths and lengths that make full,
// ragged and all-padding columns.
func TestExpectedSumMatchesSplitColumn(t *testing.T) {
	_, m := newTestManager(t, 16)
	for _, red := range []Redundancy{EC(1, 1), EC(3, 2), EC(4, 2), EC(10, 4)} {
		l, err := m.Create(red)
		if err != nil {
			t.Fatal(err)
		}
		var payloads [][]byte
		for i, n := range []int{1, 2, 3, 5, 9, 12, 41, 1027} {
			pl := payload(n, byte(7*i+3))
			if _, _, err := l.Append(pl); err != nil {
				t.Fatal(err)
			}
			payloads = append(payloads, pl)
		}
		l.imu.Lock()
		for e, pl := range payloads {
			for i, col := range l.codec.Split(pl) {
				want := crc32.Checksum(col, castagnoli)
				if got := l.expectedSumLocked(i, e); got != want {
					t.Errorf("EC(%d,%d) extent %d (%d bytes) column %d: in-place CRC %#x, Split column CRC %#x",
						red.K, red.M, e, len(pl), i, got, want)
				}
			}
		}
		l.imu.Unlock()
	}
}

// BenchmarkVerifyReadEC is a verified read of one 64 KiB extent of an
// EC(4,2) log: four data-column checksums re-computed over the log's
// buffer. It must not allocate.
func BenchmarkVerifyReadEC(b *testing.B) {
	p := pool.New("bench", sim.NewClock(), sim.NVMeSSD, 8, 0)
	m := NewManager(p, 64<<20)
	l, err := m.Create(EC(4, 2))
	if err != nil {
		b.Fatal(err)
	}
	data := payload(64<<10+1, 5) // ragged: the last column is padded
	off, _, err := l.Append(data)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := l.Read(off, int64(len(data))); err != nil {
			b.Fatal(err)
		}
	}
}
