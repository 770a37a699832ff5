// Package partition implements LakeBrain's predicate-aware partitioning
// (Section VI-B, Figure 11): a query tree — a decision tree whose inner
// nodes are workload predicates of the form (attribute, operator,
// literal) and whose leaves are partitions — built greedily to maximize
// the tuples queries can skip, with partition cardinalities estimated by
// a learned sum-product network instead of sampling or scanning. The
// package also provides the paper's comparison baselines: no
// partitioning (Full) and partitioning by a column value (Day).
package partition

import (
	"fmt"
	"math"
	"sort"

	"streamlake/internal/colfile"
	"streamlake/internal/spn"
)

// Op is a predicate operator; the paper's set is {<=, >=, <, >, =, IN}.
type Op int

// Predicate operators.
const (
	LE Op = iota
	GE
	LT
	GT
	EQ
	IN
)

// Predicate is one pushdown predicate (attribute, operator, literal).
type Predicate struct {
	Column string
	Op     Op
	Value  colfile.Value
	Values []colfile.Value // IN list
}

// Query is a conjunction of predicates.
type Query struct {
	Preds []Predicate
}

// Router assigns rows to partitions and resolves which partitions a
// query must touch.
type Router interface {
	// Route returns the partition index for a row.
	Route(row colfile.Row) int
	// NumPartitions returns the partition count.
	NumPartitions() int
	// Touches reports whether a query can match rows in partition p.
	Touches(q Query, p int) bool
	// Name identifies the strategy in reports.
	Name() string
}

// Encoder maps typed column values into the numeric space the SPN and
// the query tree operate in: numerics pass through, strings get
// order-preserving dictionary codes.
type Encoder struct {
	schema colfile.Schema
	dicts  []map[string]float64
}

// NewEncoder builds an encoder, deriving string dictionaries from the
// sample.
func NewEncoder(schema colfile.Schema, sample []colfile.Row) *Encoder {
	e := &Encoder{schema: schema, dicts: make([]map[string]float64, schema.NumFields())}
	for c, f := range schema.Fields {
		if f.Type != colfile.String {
			continue
		}
		set := map[string]bool{}
		for _, r := range sample {
			set[r[c].Str] = true
		}
		words := make([]string, 0, len(set))
		for w := range set {
			words = append(words, w)
		}
		sort.Strings(words)
		dict := make(map[string]float64, len(words))
		for i, w := range words {
			dict[w] = float64(i)
		}
		e.dicts[c] = dict
	}
	return e
}

// EncodeValue maps one cell to its numeric code. Unknown strings land
// just outside the dictionary, preserving order only approximately.
func (e *Encoder) EncodeValue(c int, v colfile.Value) float64 {
	switch v.Type {
	case colfile.Int64:
		return float64(v.Int)
	case colfile.Float64:
		return v.Float
	case colfile.Bool:
		if v.Bool {
			return 1
		}
		return 0
	case colfile.String:
		if code, ok := e.dicts[c][v.Str]; ok {
			return code
		}
		return float64(len(e.dicts[c]))
	}
	return 0
}

// EncodeRow maps a whole row.
func (e *Encoder) EncodeRow(r colfile.Row) []float64 {
	out := make([]float64, len(r))
	for c, v := range r {
		out[c] = e.EncodeValue(c, v)
	}
	return out
}

const eps = 1e-6

// queryBounds converts a query to per-column ranges in encoded space
// (IN becomes the covering range, a sound over-approximation).
func (e *Encoder) queryBounds(q Query) map[int]spn.Range {
	bounds := map[int]spn.Range{}
	get := func(c int) spn.Range {
		if r, ok := bounds[c]; ok {
			return r
		}
		return spn.Unbounded()
	}
	for _, p := range q.Preds {
		c := e.schema.FieldIndex(p.Column)
		if c < 0 {
			continue
		}
		r := get(c)
		switch p.Op {
		case LE:
			r.Hi = math.Min(r.Hi, e.EncodeValue(c, p.Value))
		case GE:
			r.Lo = math.Max(r.Lo, e.EncodeValue(c, p.Value))
		case LT:
			r.Hi = math.Min(r.Hi, e.EncodeValue(c, p.Value)-eps)
		case GT:
			r.Lo = math.Max(r.Lo, e.EncodeValue(c, p.Value)+eps)
		case EQ:
			v := e.EncodeValue(c, p.Value)
			r.Lo = math.Max(r.Lo, v)
			r.Hi = math.Min(r.Hi, v)
		case IN:
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, v := range p.Values {
				ev := e.EncodeValue(c, v)
				lo = math.Min(lo, ev)
				hi = math.Max(hi, ev)
			}
			r.Lo = math.Max(r.Lo, lo)
			r.Hi = math.Min(r.Hi, hi)
		}
		bounds[c] = r
	}
	return bounds
}

// region is a leaf's constraint box in encoded space.
type region map[int]spn.Range

func (r region) clone() region {
	out := make(region, len(r))
	for k, v := range r {
		out[k] = v
	}
	return out
}

// disjoint reports whether the query bounds cannot intersect the region.
func disjoint(r region, q map[int]spn.Range) bool {
	for c, qr := range q {
		rr, ok := r[c]
		if !ok {
			continue
		}
		if qr.Lo > rr.Hi || qr.Hi < rr.Lo {
			return true
		}
	}
	return false
}

// node is one query-tree node.
type node struct {
	cut     *cut
	yes, no *node
	leaf    int
	reg     region
}

// cut is an inner-node predicate: go yes when value <= split.
type cut struct {
	col   int
	split float64
}

// Tree is the built query tree.
type Tree struct {
	enc    *Encoder
	root   *node
	leaves []*node
}

// Config tunes tree building.
type Config struct {
	// MaxPartitions bounds the leaf count (default 16).
	MaxPartitions int
	// MinPartitionRows refuses cuts producing partitions estimated
	// smaller than this (default rows/256).
	MinPartitionRows float64
	// SPN tunes the estimator.
	SPN spn.Config
}

// Build learns an SPN on the sample and greedily grows the query tree:
// at each step, the (leaf, candidate-cut) pair that maximizes the
// expected tuples skipped across the workload is split, with partition
// cardinalities estimated by the SPN (the paper's replacement for
// sampling/scanning in QD-tree).
func Build(schema colfile.Schema, sample []colfile.Row, workload []Query, totalRows int64, cfg Config) *Tree {
	if cfg.MaxPartitions <= 0 {
		cfg.MaxPartitions = 16
	}
	if cfg.MinPartitionRows <= 0 {
		cfg.MinPartitionRows = float64(totalRows) / 256
	}
	enc := NewEncoder(schema, sample)
	data := make([][]float64, len(sample))
	for i, r := range sample {
		data[i] = enc.EncodeRow(r)
	}
	est := spn.Learn(data, cfg.SPN)
	t := &Tree{enc: enc}
	t.root = &node{reg: region{}}
	t.leaves = []*node{t.root}

	// Candidate cuts come from the workload's predicate literals.
	type candidate struct {
		col   int
		split float64
	}
	seen := map[candidate]bool{}
	var candidates []candidate
	for _, q := range workload {
		for _, p := range q.Preds {
			c := schema.FieldIndex(p.Column)
			if c < 0 {
				continue
			}
			vals := p.Values
			if p.Op != IN {
				vals = []colfile.Value{p.Value}
			}
			for _, v := range vals {
				cd := candidate{col: c, split: enc.EncodeValue(c, v)}
				if !seen[cd] {
					seen[cd] = true
					candidates = append(candidates, cd)
				}
			}
		}
	}
	qbounds := make([]map[int]spn.Range, len(workload))
	for i, q := range workload {
		qbounds[i] = enc.queryBounds(q)
	}

	count := func(r region) float64 {
		return est.EstimateCount(map[int]spn.Range(r), totalRows)
	}
	// A leaf's best cut depends only on the leaf's region and the fixed
	// workload, so each leaf is scored once when created and cached —
	// the greedy loop is then O(leaves) per split instead of
	// O(leaves x candidates).
	type scored struct {
		gain float64
		cut  candidate
	}
	scoreLeaf := func(leaf *node) scored {
		best := scored{gain: -1}
		skipBefore := 0.0
		for _, qb := range qbounds {
			if disjoint(leaf.reg, qb) {
				skipBefore += count(leaf.reg)
			}
		}
		for _, cd := range candidates {
			rr, ok := leaf.reg[cd.col]
			if !ok {
				rr = spn.Unbounded()
			}
			if cd.split <= rr.Lo || cd.split >= rr.Hi {
				continue // cut outside the region: no-op
			}
			yesReg := leaf.reg.clone()
			yesReg[cd.col] = spn.Range{Lo: rr.Lo, Hi: cd.split}
			noReg := leaf.reg.clone()
			noReg[cd.col] = spn.Range{Lo: cd.split + eps, Hi: rr.Hi}
			cYes, cNo := count(yesReg), count(noReg)
			if cYes < cfg.MinPartitionRows || cNo < cfg.MinPartitionRows {
				continue
			}
			var after float64
			for _, qb := range qbounds {
				if disjoint(yesReg, qb) {
					after += cYes
				}
				if disjoint(noReg, qb) {
					after += cNo
				}
			}
			if gain := after - skipBefore; gain > best.gain {
				best = scored{gain: gain, cut: cd}
			}
		}
		return best
	}
	scores := map[*node]scored{t.root: scoreLeaf(t.root)}

	for len(t.leaves) < cfg.MaxPartitions {
		bestLeaf := -1
		var best scored
		for li, leaf := range t.leaves {
			if s := scores[leaf]; s.gain > 0 && (bestLeaf < 0 || s.gain > best.gain) {
				bestLeaf = li
				best = s
			}
		}
		if bestLeaf < 0 {
			break
		}
		leaf := t.leaves[bestLeaf]
		rr, ok := leaf.reg[best.cut.col]
		if !ok {
			rr = spn.Unbounded()
		}
		leaf.cut = &cut{col: best.cut.col, split: best.cut.split}
		leaf.yes = &node{reg: leaf.reg.clone()}
		leaf.yes.reg[best.cut.col] = spn.Range{Lo: rr.Lo, Hi: best.cut.split}
		leaf.no = &node{reg: leaf.reg.clone()}
		leaf.no.reg[best.cut.col] = spn.Range{Lo: best.cut.split + eps, Hi: rr.Hi}
		delete(scores, leaf)
		t.leaves = append(t.leaves[:bestLeaf], t.leaves[bestLeaf+1:]...)
		t.leaves = append(t.leaves, leaf.yes, leaf.no)
		scores[leaf.yes] = scoreLeaf(leaf.yes)
		scores[leaf.no] = scoreLeaf(leaf.no)
	}
	for i, l := range t.leaves {
		l.leaf = i
	}
	return t
}

// Name implements Router.
func (t *Tree) Name() string { return "predicate-aware" }

// NumPartitions implements Router.
func (t *Tree) NumPartitions() int { return len(t.leaves) }

// Route implements Router: descend the tree by the row's values.
func (t *Tree) Route(row colfile.Row) int {
	n := t.root
	for n.cut != nil {
		if t.enc.EncodeValue(n.cut.col, row[n.cut.col]) <= n.cut.split {
			n = n.yes
		} else {
			n = n.no
		}
	}
	return n.leaf
}

// Touches implements Router.
func (t *Tree) Touches(q Query, p int) bool {
	return !disjoint(t.leaves[p].reg, t.enc.queryBounds(q))
}

// Full is the no-partitioning baseline: one partition holding
// everything.
type Full struct{}

// Name implements Router.
func (Full) Name() string { return "full" }

// Route implements Router.
func (Full) Route(colfile.Row) int { return 0 }

// NumPartitions implements Router.
func (Full) NumPartitions() int { return 1 }

// Touches implements Router.
func (Full) Touches(Query, int) bool { return true }

// ByValue partitions by buckets of one column's encoded value — the
// paper's "partition by the day of l_shipdate" baseline when the column
// is a date counted in days.
type ByValue struct {
	Column     string
	col        int
	enc        *Encoder
	BucketSize float64
	buckets    int
	lo         float64
}

// NewByValue builds a by-value partitioner over the sample's range of
// the column.
func NewByValue(schema colfile.Schema, sample []colfile.Row, column string, bucketSize float64) *ByValue {
	b := &ByValue{Column: column, BucketSize: bucketSize, enc: NewEncoder(schema, sample)}
	b.col = schema.FieldIndex(column)
	if b.col < 0 || len(sample) == 0 {
		b.buckets = 1
		return b
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range sample {
		v := b.enc.EncodeValue(b.col, r[b.col])
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	b.lo = lo
	b.buckets = int((hi-lo)/bucketSize) + 1
	return b
}

// Name implements Router.
func (b *ByValue) Name() string { return fmt.Sprintf("by-%s", b.Column) }

// NumPartitions implements Router.
func (b *ByValue) NumPartitions() int { return b.buckets }

// Route implements Router.
func (b *ByValue) Route(row colfile.Row) int {
	if b.col < 0 {
		return 0
	}
	v := b.enc.EncodeValue(b.col, row[b.col])
	p := int((v - b.lo) / b.BucketSize)
	if p < 0 {
		p = 0
	}
	if p >= b.buckets {
		p = b.buckets - 1
	}
	return p
}

// Touches implements Router.
func (b *ByValue) Touches(q Query, p int) bool {
	if b.col < 0 {
		return true
	}
	qb := b.enc.queryBounds(q)
	r, ok := qb[b.col]
	if !ok {
		return true // query does not constrain the partition column
	}
	pLo := b.lo + float64(p)*b.BucketSize
	pHi := pLo + b.BucketSize - eps
	return !(r.Lo > pHi || r.Hi < pLo)
}
