package plog

import (
	"bytes"
	"runtime"
	"testing"

	"streamlake/internal/pool"
	"streamlake/internal/sim"
)

// bigManager builds a manager whose logs are large enough for the
// growth-cost guards below.
func bigManager(capacity int64) *Manager {
	return NewManager(pool.New("extents", sim.NewClock(), sim.NVMeSSD, 6, 0), capacity)
}

// TestAppendCopiesEachByteOnce is the allocation guard of "the log is
// its extents": filling one log costs the payload bytes once, plus
// small per-extent bookkeeping. A log kept as one flat slice that grows
// by reallocation allocates about five times the payload on the way.
func TestAppendCopiesEachByteOnce(t *testing.T) {
	const total, chunk = 64 << 20, 256 << 10
	l, err := bigManager(total).Create(ReplicateN(3))
	if err != nil {
		t.Fatal(err)
	}
	data := payload(chunk, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < total/chunk; i++ {
		if _, _, err := l.Append(data); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if l.Size() != total {
		t.Fatalf("size = %d, want %d", l.Size(), total)
	}
	got := float64(after.TotalAlloc-before.TotalAlloc) / total
	t.Logf("allocated %.2fx the payload bytes", got)
	if got > 1.15 {
		t.Fatalf("appending %d MiB allocated %.2fx the payload bytes, want <= 1.15x", total>>20, got)
	}
}

// TestECAppendAllocatesExtentPlusConstant: recording an extent on an
// EC(4,2) log allocates its one copy plus bookkeeping that does not grow
// with the payload. The parity CRCs are streamed through m+1 blocks of
// scratch; materializing the parity shards cost m/k of the payload more
// (525 KB beside a 1 MiB extent).
func TestECAppendAllocatesExtentPlusConstant(t *testing.T) {
	const n, ceiling = 32, 5 << 10
	for _, size := range []int{4 << 10, 1 << 20} {
		l, err := bigManager(int64(n * size)).Create(EC(4, 2))
		if err != nil {
			t.Fatal(err)
		}
		data := payload(size, 1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			if _, _, err := l.Append(data); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		extra := float64(after.TotalAlloc-before.TotalAlloc)/n - float64(size)
		t.Logf("%d B extent: %.0f B allocated beside it", size, extra)
		if extra > ceiling {
			t.Errorf("a %d B extent allocated %.0f B beside its copy, want <= %d", size, extra, ceiling)
		}
	}
}

// TestReadInsideExtentAllocatesNothing: the data-path read — a range
// inside one appended payload, verification on — is a borrow, found by
// binary search over the extents and CRC-checked in place, on both
// redundancy kinds.
func TestReadInsideExtentAllocatesNothing(t *testing.T) {
	_, m := newTestManager(t, 8)
	for _, red := range []Redundancy{ReplicateN(3), EC(4, 2)} {
		l, err := m.Create(red)
		if err != nil {
			t.Fatal(err)
		}
		var offs []int64
		for i := 0; i < 16; i++ {
			off, _, err := l.Append(payload(4096+i, byte(i)))
			if err != nil {
				t.Fatal(err)
			}
			offs = append(offs, off)
		}
		before := l.IntegrityStats().Verifications
		allocs := testing.AllocsPerRun(100, func() {
			for _, r := range []struct{ off, n int64 }{{offs[7], 4096 + 7}, {offs[11] + 100, 1000}} {
				if _, _, err := l.Read(r.off, r.n); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%+v: a read inside one extent allocated %.0f times, want 0", red, allocs)
		}
		if l.IntegrityStats().Verifications == before {
			t.Errorf("%+v: reads ran no checksum verification", red)
		}
	}
}

// TestSpanningReadIsPrivateCopy: a range that crosses payload boundaries
// has no single extent to borrow from, so it is gathered into a buffer
// of the caller's own; scribbling on it cannot reach the log.
func TestSpanningReadIsPrivateCopy(t *testing.T) {
	_, m := newTestManager(t, 8)
	for _, red := range []Redundancy{ReplicateN(3), EC(4, 2)} {
		l, err := m.Create(red)
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		for i, n := range []int{100, 0, 37, 4096, 1} {
			pl := payload(n, byte(3*i+1))
			if _, _, err := l.Append(pl); err != nil {
				t.Fatal(err)
			}
			want = append(want, pl...)
		}
		for _, r := range []struct{ off, n int64 }{{0, int64(len(want))}, {50, 60}, {99, 39}, {120, 4114}} {
			got, _, err := l.Read(r.off, r.n)
			if err != nil || !bytes.Equal(got, want[r.off:r.off+r.n]) {
				t.Fatalf("%+v: spanning read of [%d,+%d) differs from what was appended (err=%v)", red, r.off, r.n, err)
			}
			for i := range got {
				got[i] ^= 0xFF
			}
			again, _, err := l.Read(r.off, r.n)
			if err != nil || !bytes.Equal(again, want[r.off:r.off+r.n]) {
				t.Fatalf("%+v: mutating a spanning read of [%d,+%d) reached the log (err=%v)", red, r.off, r.n, err)
			}
		}
		if whole, _, err := l.Read(0, int64(len(want))); err != nil || !bytes.Equal(whole, want) {
			t.Fatalf("%+v: log changed under mutated spanning reads (err=%v)", red, err)
		}
	}
}

// BenchmarkAppendBatch appends 256 KiB payloads to logs filled to two
// very different sizes: the cost of a commit must not depend on how
// much the log already holds (ns/op within 1.5x, B/op ~ the payload at
// both sizes). An iteration is one appended payload; a fresh log is
// started whenever the current one is full. The EC(4,2) case is the
// append of an EC topic's slice or a table file: B/op ~ the payload too,
// its parity streamed rather than materialized.
func BenchmarkAppendBatch(b *testing.B) {
	const chunk = 256 << 10
	data := payload(chunk, 1)
	for _, tc := range []struct {
		name string
		red  Redundancy
		size int
	}{
		{"log=1MiB", ReplicateN(3), 1 << 20},
		{"log=96MiB", ReplicateN(3), 96 << 20},
		{"EC(4,2)/log=96MiB", EC(4, 2), 96 << 20},
	} {
		b.Run(tc.name, func(b *testing.B) {
			m := bigManager(int64(tc.size))
			b.SetBytes(chunk)
			b.ReportAllocs()
			for n := 0; n < b.N; {
				l, err := m.Create(tc.red)
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < tc.size/chunk && n < b.N; i, n = i+1, n+1 {
					if _, _, err := l.AppendBatch([][]byte{data}, nil); err != nil {
						b.Fatal(err)
					}
				}
				if err := m.Destroy(l.ID()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
