// Package spn implements a sum-product network learned from data, the
// AI-driven cardinality estimator LakeBrain's predicate-aware
// partitioner uses (Section VI-B): "we use the sum-product network as
// the estimator". Structure learning follows the standard recipe the
// DeepDB line of work popularized — product nodes split independent
// column groups (pairwise correlation test), sum nodes cluster rows
// (2-means), leaves are per-column histograms — so conjunctive range
// queries are answered in one bottom-up pass without scanning data.
package spn

import (
	"math"

	"streamlake/internal/sim"
)

// Config tunes structure learning.
type Config struct {
	// Seed drives the clustering initialization (0 means 1).
	Seed uint64
}

const (
	// minRows stops recursion: a slice smaller than this becomes leaves.
	minRows = 64
	// corrThreshold is the absolute Pearson correlation below which two
	// columns are considered independent.
	corrThreshold = 0.3
	// bins is the histogram resolution of leaves.
	bins = 32
	// maxDepth bounds recursion.
	maxDepth = 12
)

// Range is a closed interval query bound; use math.Inf for open ends.
type Range struct {
	Lo, Hi float64
}

// Unbounded returns the full-range query bound.
func Unbounded() Range { return Range{Lo: math.Inf(-1), Hi: math.Inf(1)} }

// SPN is a learned sum-product network over numeric columns.
type SPN struct {
	root node
	cols int
}

type node interface {
	// prob returns P(query) for the node's scope. bounds is indexed by
	// original column; active marks constrained columns.
	prob(bounds []Range, active []bool) float64
}

// productNode multiplies independent scopes.
type productNode struct {
	children []node
}

func (p *productNode) prob(bounds []Range, active []bool) float64 {
	out := 1.0
	for _, c := range p.children {
		out *= c.prob(bounds, active)
	}
	return out
}

// sumNode mixes row clusters.
type sumNode struct {
	weights  []float64
	children []node
}

func (s *sumNode) prob(bounds []Range, active []bool) float64 {
	var out float64
	for i, c := range s.children {
		out += s.weights[i] * c.prob(bounds, active)
	}
	return out
}

// leafNode is an equi-width histogram over one column.
type leafNode struct {
	col      int
	min, max float64
	counts   []float64 // normalized to sum 1
}

func (l *leafNode) prob(bounds []Range, active []bool) float64 {
	if !active[l.col] {
		return 1
	}
	q := bounds[l.col]
	if q.Hi < l.min || q.Lo > l.max {
		return 0
	}
	if l.max == l.min {
		// Degenerate single-value column.
		if q.Lo <= l.min && l.min <= q.Hi {
			return 1
		}
		return 0
	}
	width := (l.max - l.min) / float64(len(l.counts))
	var p float64
	for i, c := range l.counts {
		bLo := l.min + float64(i)*width
		bHi := bLo + width
		// Overlap fraction of the bin with [q.Lo, q.Hi].
		lo := math.Max(bLo, q.Lo)
		hi := math.Min(bHi, q.Hi)
		if hi <= lo {
			continue
		}
		p += c * (hi - lo) / width
	}
	if p > 1 {
		p = 1
	}
	return p
}

// Learn builds an SPN from row-major numeric data. Columns with
// categorical content should be dictionary-coded to floats by the
// caller.
func Learn(data [][]float64, cfg Config) *SPN {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if len(data) == 0 {
		return &SPN{root: &productNode{}}
	}
	cols := len(data[0])
	scope := make([]int, cols)
	for i := range scope {
		scope[i] = i
	}
	rng := sim.NewRNG(cfg.Seed)
	root := learnNode(data, scope, rng, 0)
	return &SPN{root: root, cols: cols}
}

// Prob estimates P(AND of ranges) for the given per-column bounds.
func (s *SPN) Prob(q map[int]Range) float64 {
	bounds := make([]Range, s.cols)
	active := make([]bool, s.cols)
	for c, r := range q {
		if c < 0 || c >= s.cols {
			continue
		}
		bounds[c] = r
		active[c] = true
	}
	p := s.root.prob(bounds, active)
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// EstimateCount scales Prob by a population of n rows (use the full
// table cardinality when the SPN was learned on a sample).
func (s *SPN) EstimateCount(q map[int]Range, n int64) float64 {
	return s.Prob(q) * float64(n)
}

func learnNode(data [][]float64, scope []int, rng *sim.RNG, depth int) node {
	if len(scope) == 1 {
		return buildLeaf(data, scope[0])
	}
	if len(data) < minRows || depth >= maxDepth {
		// Factorize fully: naive independence at the base case.
		p := &productNode{}
		for _, c := range scope {
			p.children = append(p.children, buildLeaf(data, c))
		}
		return p
	}
	// Try a product split: connected components of the "correlated"
	// graph.
	groups := independentGroups(data, scope)
	if len(groups) > 1 {
		p := &productNode{}
		for _, g := range groups {
			p.children = append(p.children, learnNode(data, g, rng, depth+1))
		}
		return p
	}
	// Sum split: 2-means over the scope columns.
	a, b := cluster2(data, scope, rng)
	if len(a) == 0 || len(b) == 0 {
		p := &productNode{}
		for _, c := range scope {
			p.children = append(p.children, buildLeaf(data, c))
		}
		return p
	}
	s := &sumNode{
		weights: []float64{float64(len(a)) / float64(len(data)), float64(len(b)) / float64(len(data))},
	}
	s.children = append(s.children,
		learnNode(a, scope, rng, depth+1),
		learnNode(b, scope, rng, depth+1))
	return s
}

func buildLeaf(data [][]float64, col int) *leafNode {
	l := &leafNode{col: col, counts: make([]float64, bins)}
	if len(data) == 0 {
		return l
	}
	l.min, l.max = data[0][col], data[0][col]
	for _, r := range data {
		v := r[col]
		if v < l.min {
			l.min = v
		}
		if v > l.max {
			l.max = v
		}
	}
	if l.max == l.min {
		l.counts[0] = 1
		return l
	}
	width := (l.max - l.min) / float64(bins)
	for _, r := range data {
		i := int((r[col] - l.min) / width)
		if i >= bins {
			i = bins - 1
		}
		l.counts[i]++
	}
	for i := range l.counts {
		l.counts[i] /= float64(len(data))
	}
	return l
}

// independentGroups partitions scope columns into connected components
// of the |corr| >= corrThreshold graph.
func independentGroups(data [][]float64, scope []int) [][]int {
	n := len(scope)
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(pearson(data, scope[i], scope[j])) >= corrThreshold {
				adj[i][j], adj[j][i] = true, true
			}
		}
	}
	seen := make([]bool, n)
	var groups [][]int
	for i := 0; i < n; i++ {
		if seen[i] {
			continue
		}
		var group []int
		stack := []int{i}
		seen[i] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			group = append(group, scope[v])
			for u := 0; u < n; u++ {
				if adj[v][u] && !seen[u] {
					seen[u] = true
					stack = append(stack, u)
				}
			}
		}
		groups = append(groups, group)
	}
	return groups
}

func pearson(data [][]float64, a, b int) float64 {
	n := float64(len(data))
	if n < 2 {
		return 0
	}
	var sumA, sumB float64
	for _, r := range data {
		sumA += r[a]
		sumB += r[b]
	}
	meanA, meanB := sumA/n, sumB/n
	var cov, varA, varB float64
	for _, r := range data {
		da, db := r[a]-meanA, r[b]-meanB
		cov += da * db
		varA += da * da
		varB += db * db
	}
	if varA == 0 || varB == 0 {
		return 0
	}
	return cov / math.Sqrt(varA*varB)
}

// cluster2 splits rows into two clusters by 2-means over the scope
// columns (values standardized per column), with a fixed iteration
// budget.
func cluster2(data [][]float64, scope []int, rng *sim.RNG) ([][]float64, [][]float64) {
	n := len(data)
	// Standardize scope columns.
	means := make([]float64, len(scope))
	stds := make([]float64, len(scope))
	for k, c := range scope {
		var s float64
		for _, r := range data {
			s += r[c]
		}
		means[k] = s / float64(n)
		var v float64
		for _, r := range data {
			d := r[c] - means[k]
			v += d * d
		}
		stds[k] = math.Sqrt(v / float64(n))
		if stds[k] == 0 {
			stds[k] = 1
		}
	}
	norm := func(r []float64) []float64 {
		out := make([]float64, len(scope))
		for k, c := range scope {
			out[k] = (r[c] - means[k]) / stds[k]
		}
		return out
	}
	c1 := norm(data[rng.Intn(n)])
	c2 := norm(data[rng.Intn(n)])
	assign := make([]bool, n)
	for iter := 0; iter < 8; iter++ {
		changed := false
		for i, r := range data {
			v := norm(r)
			toC2 := dist2(v, c2) < dist2(v, c1)
			if assign[i] != toC2 {
				assign[i] = toC2
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute centroids.
		n1, n2 := 0, 0
		s1 := make([]float64, len(scope))
		s2 := make([]float64, len(scope))
		for i, r := range data {
			v := norm(r)
			if assign[i] {
				n2++
				for k := range v {
					s2[k] += v[k]
				}
			} else {
				n1++
				for k := range v {
					s1[k] += v[k]
				}
			}
		}
		if n1 == 0 || n2 == 0 {
			break
		}
		for k := range s1 {
			c1[k] = s1[k] / float64(n1)
			c2[k] = s2[k] / float64(n2)
		}
	}
	var a, b [][]float64
	for i, r := range data {
		if assign[i] {
			b = append(b, r)
		} else {
			a = append(a, r)
		}
	}
	return a, b
}

func dist2(a, b []float64) float64 {
	var d float64
	for i := range a {
		x := a[i] - b[i]
		d += x * x
	}
	return d
}
