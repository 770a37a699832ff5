package spn

import (
	"math"
	"testing"
	"testing/quick"

	"streamlake/internal/sim"
)

// uniformData generates n rows of independent uniforms on [0, 100).
func uniformData(n int, cols int, seed uint64) [][]float64 {
	rng := sim.NewRNG(seed)
	data := make([][]float64, n)
	for i := range data {
		row := make([]float64, cols)
		for c := range row {
			row[c] = rng.Float64() * 100
		}
		data[i] = row
	}
	return data
}

func TestUniformMarginal(t *testing.T) {
	s := Learn(uniformData(5000, 2, 1), Config{})
	// P(0 <= x0 <= 50) should be about 0.5.
	p := s.Prob(map[int]Range{0: {Lo: 0, Hi: 50}})
	if p < 0.4 || p > 0.6 {
		t.Fatalf("P(x0<=50) = %v, want ~0.5", p)
	}
	// Unconstrained query has probability ~1.
	if p := s.Prob(nil); p < 0.99 {
		t.Fatalf("P(true) = %v", p)
	}
	// Disjoint range has probability ~0.
	if p := s.Prob(map[int]Range{0: {Lo: 200, Hi: 300}}); p > 0.01 {
		t.Fatalf("P(out of range) = %v", p)
	}
}

func TestIndependentConjunction(t *testing.T) {
	s := Learn(uniformData(8000, 3, 2), Config{})
	// Independent columns: P(x0<=50 AND x1<=25) ~ 0.5 * 0.25.
	p := s.Prob(map[int]Range{
		0: {Lo: math.Inf(-1), Hi: 50},
		1: {Lo: math.Inf(-1), Hi: 25},
	})
	if p < 0.08 || p > 0.18 {
		t.Fatalf("joint = %v, want ~0.125", p)
	}
}

func TestCorrelatedColumnsBeatIndependenceAssumption(t *testing.T) {
	// x1 = x0 + noise: P(x0<=20 AND x1<=25) is ~P(x0<=20) = 0.2, NOT
	// 0.2*0.25=0.05. The SPN must capture the correlation that a naive
	// independence model misses.
	rng := sim.NewRNG(3)
	var data [][]float64
	for i := 0; i < 8000; i++ {
		x := rng.Float64() * 100
		var sum float64 // twelve uniforms less 6: approximately N(0, 1)
		for j := 0; j < 12; j++ {
			sum += rng.Float64()
		}
		data = append(data, []float64{x, x + (sum - 6)})
	}
	s := Learn(data, Config{})
	p := s.Prob(map[int]Range{
		0: {Lo: math.Inf(-1), Hi: 20},
		1: {Lo: math.Inf(-1), Hi: 25},
	})
	truth := 0.0
	for _, r := range data {
		if r[0] <= 20 && r[1] <= 25 {
			truth++
		}
	}
	truth /= float64(len(data))
	if math.Abs(p-truth) > 0.08 {
		t.Fatalf("correlated estimate %v, truth %v", p, truth)
	}
	naive := 0.2 * 0.25
	if math.Abs(p-truth) >= math.Abs(naive-truth) {
		t.Fatalf("SPN (%v) no better than independence (%v), truth %v", p, naive, truth)
	}
}

func TestMultimodalDistribution(t *testing.T) {
	// Two well-separated clusters; a query on one cluster should return
	// that cluster's share.
	rng := sim.NewRNG(4)
	var data [][]float64
	for i := 0; i < 6000; i++ {
		if i%4 == 0 { // 25% in the high cluster
			data = append(data, []float64{80 + rng.Float64()*10, 80 + rng.Float64()*10})
		} else {
			data = append(data, []float64{rng.Float64() * 10, rng.Float64() * 10})
		}
	}
	s := Learn(data, Config{})
	p := s.Prob(map[int]Range{0: {Lo: 70, Hi: 100}, 1: {Lo: 70, Hi: 100}})
	if p < 0.17 || p > 0.33 {
		t.Fatalf("high-cluster mass = %v, want ~0.25", p)
	}
}

func TestEstimateCountScales(t *testing.T) {
	s := Learn(uniformData(2000, 1, 5), Config{})
	// Learned on a sample, applied to a 1M-row population.
	est := s.EstimateCount(map[int]Range{0: {Lo: 0, Hi: 10}}, 1_000_000)
	if est < 50_000 || est > 150_000 {
		t.Fatalf("estimated count %v, want ~100k", est)
	}
}

func TestDegenerateInputs(t *testing.T) {
	// Empty data.
	s := Learn(nil, Config{})
	if p := s.Prob(nil); p != 1 {
		t.Fatalf("empty SPN: Prob = %v, want 1", p)
	}
	// Constant column.
	data := make([][]float64, 100)
	for i := range data {
		data[i] = []float64{42}
	}
	s = Learn(data, Config{})
	if p := s.Prob(map[int]Range{0: {Lo: 40, Hi: 44}}); p < 0.99 {
		t.Fatalf("constant column containing query: %v", p)
	}
	if p := s.Prob(map[int]Range{0: {Lo: 50, Hi: 60}}); p > 0.01 {
		t.Fatalf("constant column disjoint query: %v", p)
	}
	// Out-of-range column index is ignored.
	if p := s.Prob(map[int]Range{7: {Lo: 0, Hi: 1}}); p < 0.99 {
		t.Fatalf("bad column index: %v", p)
	}
}

func TestQuickProbabilityAxioms(t *testing.T) {
	s := Learn(uniformData(3000, 2, 7), Config{})
	// Property: probabilities are in [0,1] and monotone in range width.
	f := func(aLo, aWidth, bWidth uint8) bool {
		lo := float64(aLo % 100)
		w1 := float64(aWidth % 100)
		w2 := w1 + float64(bWidth%50)
		p1 := s.Prob(map[int]Range{0: {Lo: lo, Hi: lo + w1}})
		p2 := s.Prob(map[int]Range{0: {Lo: lo, Hi: lo + w2}})
		return p1 >= 0 && p1 <= 1 && p2 >= p1-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLearnDeterministic(t *testing.T) {
	data := uniformData(1000, 2, 9)
	s1 := Learn(data, Config{Seed: 42})
	s2 := Learn(data, Config{Seed: 42})
	for i := 0; i < 20; i++ {
		q := map[int]Range{0: {Lo: float64(i * 5), Hi: float64(i*5 + 10)}}
		if s1.Prob(q) != s2.Prob(q) {
			t.Fatal("same-seed SPNs disagree")
		}
	}
}

func BenchmarkLearn(b *testing.B) {
	data := uniformData(5000, 4, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Learn(data, Config{})
	}
}

func BenchmarkProb(b *testing.B) {
	s := Learn(uniformData(5000, 4, 13), Config{})
	q := map[int]Range{0: {Lo: 10, Hi: 60}, 2: {Lo: 0, Hi: 30}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Prob(q)
	}
}
