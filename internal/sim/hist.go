package sim

import (
	"math"
	"sync"
	"time"
)

// Histogram collects latency samples and reports percentiles. It keeps
// log-scaled buckets so memory stays constant regardless of sample count,
// which matters for the million-message streaming sweeps in Figure 14.
type Histogram struct {
	mu      sync.Mutex
	buckets [128]int64 // bucket i covers [2^(i/4) .. 2^((i+1)/4)) microseconds-ish, see index
	count   int64
	min     time.Duration
	max     time.Duration
}

// bucketIndex maps a duration to a log-scale bucket: 4 buckets per
// doubling, anchored at 1 microsecond.
func bucketIndex(d time.Duration) int {
	us := float64(d) / float64(time.Microsecond)
	if us < 1 {
		return 0
	}
	i := int(math.Log2(us) * 4)
	if i < 0 {
		i = 0
	}
	if i >= 128 {
		i = 127
	}
	return i
}

// bucketValue returns a representative duration for bucket i (its lower
// bound).
func bucketValue(i int) time.Duration {
	us := math.Pow(2, float64(i)/4)
	return time.Duration(us * float64(time.Microsecond))
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.buckets[bucketIndex(d)]++
	h.count++
	if h.count == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count reports the number of samples observed.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Quantile reports the approximate q-quantile (0 <= q <= 1) of observed
// samples. Exact min and max are returned for q==0 and q==1.
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := int64(q * float64(h.count))
	var cum int64
	for i, n := range h.buckets {
		cum += n
		if cum > target {
			return bucketValue(i)
		}
	}
	return h.max
}
