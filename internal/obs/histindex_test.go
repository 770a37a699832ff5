package obs

import (
	"math"
	"testing"
	"time"

	"streamlake/internal/sim"
)

// histIndexLog2 is the bucket function histIndex replaced, kept as its
// oracle: the float formula every recorded /metrics page was cut with.
func histIndexLog2(d time.Duration) int {
	us := float64(d) / float64(time.Microsecond)
	if us < 1 {
		return 0
	}
	i := int(math.Log2(us) * 4)
	if i < 0 {
		i = 0
	}
	if i >= HistBuckets {
		i = HistBuckets - 1
	}
	return i
}

// TestHistIndexMatchesLog2: the integer bucket index is the float one —
// on every duration a produce or a poll can plausibly cost (0…3 ms, each
// nanosecond), around every bucket boundary, and on 5 M random 64-bit
// durations (negative ones included) — so no histogram, /metrics line or
// snapshot moves.
func TestHistIndexMatchesLog2(t *testing.T) {
	check := func(d time.Duration) {
		if got, want := histIndex(d), histIndexLog2(d); got != want {
			t.Fatalf("histIndex(%d ns) = %d, the Log2 formula says %d", int64(d), got, want)
		}
	}
	for d := time.Duration(-3); d <= 3*time.Millisecond; d++ {
		check(d)
	}
	for i, lo := range histLower {
		if i > 0 && lo <= histLower[i-1] {
			t.Fatalf("histLower[%d] = %d does not rise", i, lo)
		}
		for delta := int64(-3); delta <= 3; delta++ {
			check(time.Duration(lo + delta))
		}
	}
	rng := sim.NewRNG(21)
	for i := 0; i < 5_000_000; i++ {
		u := rng.Uint64()
		check(time.Duration(u))             // top octaves and negatives
		check(time.Duration(u >> (i % 64))) // every magnitude
	}
	check(math.MaxInt64)
	check(math.MinInt64)
}
