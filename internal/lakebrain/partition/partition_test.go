package partition

import (
	"fmt"
	"testing"

	"streamlake/internal/colfile"
	"streamlake/internal/sim"
)

var schema = colfile.MustSchema("age:int64", "gender:string", "amount:float64")

func sample(n int, seed uint64) []colfile.Row {
	rng := sim.NewRNG(seed)
	rows := make([]colfile.Row, n)
	for i := range rows {
		g := "Male"
		if rng.Intn(2) == 0 {
			g = "Female"
		}
		rows[i] = colfile.Row{
			colfile.IntValue(int64(18 + rng.Intn(60))),
			colfile.StringValue(g),
			colfile.FloatValue(rng.Float64() * 1000),
		}
	}
	return rows
}

// figure11Workload mirrors the paper's example: predicates on age and
// gender.
func figure11Workload() []Query {
	return []Query{
		{Preds: []Predicate{
			{Column: "age", Op: LT, Value: colfile.IntValue(30)},
			{Column: "gender", Op: EQ, Value: colfile.StringValue("Male")},
		}},
		{Preds: []Predicate{
			{Column: "age", Op: GE, Value: colfile.IntValue(30)},
		}},
		{Preds: []Predicate{
			{Column: "gender", Op: EQ, Value: colfile.StringValue("Female")},
			{Column: "age", Op: LE, Value: colfile.IntValue(50)},
		}},
	}
}

func TestEncoderOrderPreserving(t *testing.T) {
	rows := sample(100, 1)
	e := NewEncoder(schema, rows)
	if e.EncodeValue(0, colfile.IntValue(20)) >= e.EncodeValue(0, colfile.IntValue(30)) {
		t.Fatal("int encoding not order preserving")
	}
	// Dictionary codes preserve lexicographic order.
	if e.EncodeValue(1, colfile.StringValue("Female")) >= e.EncodeValue(1, colfile.StringValue("Male")) {
		t.Fatal("string encoding not order preserving")
	}
	// Unknown strings fall outside the dictionary.
	if e.EncodeValue(1, colfile.StringValue("ZZZ")) < 2 {
		t.Fatal("unknown string encoded inside dictionary")
	}
}

func TestQueryBounds(t *testing.T) {
	e := NewEncoder(schema, sample(10, 2))
	q := Query{Preds: []Predicate{
		{Column: "age", Op: GE, Value: colfile.IntValue(30)},
		{Column: "age", Op: LT, Value: colfile.IntValue(40)},
	}}
	b := e.queryBounds(q)
	r := b[0]
	if r.Lo != 30 || r.Hi >= 40 || r.Hi < 39 {
		t.Fatalf("bounds: %+v", r)
	}
	// IN covers its value range.
	q2 := Query{Preds: []Predicate{{Column: "age", Op: IN, Values: []colfile.Value{
		colfile.IntValue(25), colfile.IntValue(35),
	}}}}
	r2 := e.queryBounds(q2)[0]
	if r2.Lo != 25 || r2.Hi != 35 {
		t.Fatalf("IN bounds: %+v", r2)
	}
}

func TestBuildTreePartitionsAndRoutes(t *testing.T) {
	rows := sample(4000, 3)
	tree := Build(schema, rows, figure11Workload(), 4000, Config{MaxPartitions: 8})
	if tree.NumPartitions() < 2 {
		t.Fatalf("tree did not split: %d partitions", tree.NumPartitions())
	}
	// Routing is total and stable.
	counts := make([]int, tree.NumPartitions())
	for _, r := range rows {
		p := tree.Route(r)
		if p < 0 || p >= tree.NumPartitions() {
			t.Fatalf("route out of range: %d", p)
		}
		if tree.Route(r) != p {
			t.Fatal("routing unstable")
		}
		counts[p]++
	}
	// Every partition the tree built should receive some rows.
	for p, c := range counts {
		if c == 0 {
			t.Fatalf("partition %d empty", p)
		}
	}
}

func TestRoutingConsistentWithTouches(t *testing.T) {
	// Soundness: if a row matches a query, the partition the row routes
	// to must be touched by that query.
	rows := sample(3000, 4)
	workload := figure11Workload()
	tree := Build(schema, rows, workload, 3000, Config{MaxPartitions: 16})
	matches := func(r colfile.Row, q Query) bool {
		for _, p := range q.Preds {
			c := schema.FieldIndex(p.Column)
			cmp := colfile.Compare(r[c], p.Value)
			switch p.Op {
			case LT:
				if cmp >= 0 {
					return false
				}
			case LE:
				if cmp > 0 {
					return false
				}
			case GT:
				if cmp <= 0 {
					return false
				}
			case GE:
				if cmp < 0 {
					return false
				}
			case EQ:
				if cmp != 0 {
					return false
				}
			}
		}
		return true
	}
	for _, q := range workload {
		for _, r := range rows {
			if matches(r, q) && !tree.Touches(q, tree.Route(r)) {
				t.Fatalf("query %+v skips partition holding a matching row", q)
			}
		}
	}
}

func TestTreeSkipsMoreThanBaselines(t *testing.T) {
	// The Figure 16(b) comparison: tuples skipped under Full, ByValue
	// and predicate-aware partitioning for the same workload.
	rows := sample(5000, 5)
	workload := figure11Workload()
	tree := Build(schema, rows, workload, 5000, Config{MaxPartitions: 16})
	baselineFull := Full{}
	baselineDay := NewByValue(schema, rows, "amount", 100) // partition by unqueried column

	skipped := func(r Router) int {
		perPartition := make([]int, r.NumPartitions())
		for _, row := range rows {
			perPartition[r.Route(row)]++
		}
		var total int
		for _, q := range workload {
			for p := 0; p < r.NumPartitions(); p++ {
				if !r.Touches(q, p) {
					total += perPartition[p]
				}
			}
		}
		return total
	}
	sFull := skipped(baselineFull)
	sDay := skipped(baselineDay)
	sTree := skipped(tree)
	t.Logf("skipped: full=%d by-amount=%d tree=%d", sFull, sDay, sTree)
	if sFull != 0 {
		t.Fatal("full scan skipped tuples")
	}
	if sTree <= sDay {
		t.Fatalf("predicate-aware (%d) not better than by-value (%d)", sTree, sDay)
	}
}

func TestByValueRelevantColumnStillLoses(t *testing.T) {
	// Even when the baseline partitions on a queried column, the
	// predicate-aware tree (which also uses the second column) skips at
	// least as much.
	rows := sample(5000, 6)
	workload := figure11Workload()
	tree := Build(schema, rows, workload, 5000, Config{MaxPartitions: 16})
	byAge := NewByValue(schema, rows, "age", 10)
	perTree := make([]int, tree.NumPartitions())
	perAge := make([]int, byAge.NumPartitions())
	for _, row := range rows {
		perTree[tree.Route(row)]++
		perAge[byAge.Route(row)]++
	}
	var sTree, sAge int
	for _, q := range workload {
		for p := range perTree {
			if !tree.Touches(q, p) {
				sTree += perTree[p]
			}
		}
		for p := range perAge {
			if !byAge.Touches(q, p) {
				sAge += perAge[p]
			}
		}
	}
	t.Logf("skipped: tree=%d by-age=%d", sTree, sAge)
	if sTree < sAge {
		t.Fatalf("tree (%d) skipped less than by-age (%d)", sTree, sAge)
	}
}

func TestByValueBucketing(t *testing.T) {
	rows := sample(1000, 7)
	b := NewByValue(schema, rows, "age", 10)
	if b.NumPartitions() < 5 {
		t.Fatalf("buckets: %d", b.NumPartitions())
	}
	for _, r := range rows {
		p := b.Route(r)
		if p < 0 || p >= b.NumPartitions() {
			t.Fatalf("bucket out of range: %d", p)
		}
	}
	// Unconstrained query touches everything.
	for p := 0; p < b.NumPartitions(); p++ {
		if !b.Touches(Query{}, p) {
			t.Fatal("empty query skipped a bucket")
		}
	}
	// Missing column degrades to a single catch-all.
	b2 := NewByValue(schema, rows, "ghost", 10)
	if b2.NumPartitions() != 1 || b2.Route(rows[0]) != 0 || !b2.Touches(Query{}, 0) {
		t.Fatal("missing-column ByValue broken")
	}
}

func TestFullBaseline(t *testing.T) {
	f := Full{}
	if f.NumPartitions() != 1 || f.Route(nil) != 0 || !f.Touches(Query{}, 0) || f.Name() != "full" {
		t.Fatal("Full baseline broken")
	}
}

func TestMinPartitionRowsRespected(t *testing.T) {
	rows := sample(1000, 8)
	// Huge minimum: the tree must refuse to split at all.
	tree := Build(schema, rows, figure11Workload(), 1000, Config{MaxPartitions: 16, MinPartitionRows: 900})
	if tree.NumPartitions() != 1 {
		t.Fatalf("tree split despite MinPartitionRows: %d", tree.NumPartitions())
	}
}

func TestWorkloadWithINPredicates(t *testing.T) {
	rows := sample(2000, 10)
	workload := []Query{
		{Preds: []Predicate{{Column: "age", Op: IN, Values: []colfile.Value{
			colfile.IntValue(20), colfile.IntValue(21), colfile.IntValue(22),
		}}}},
		{Preds: []Predicate{{Column: "age", Op: GT, Value: colfile.IntValue(60)}}},
	}
	tree := Build(schema, rows, workload, 2000, Config{MaxPartitions: 8})
	// Must route and answer Touches without panicking, and skip the
	// >60 partition for the IN query.
	for _, q := range workload {
		anySkipped := false
		for p := 0; p < tree.NumPartitions(); p++ {
			if !tree.Touches(q, p) {
				anySkipped = true
			}
		}
		if tree.NumPartitions() > 1 && !anySkipped {
			t.Logf("query %v skipped nothing (%d partitions)", q, tree.NumPartitions())
		}
	}
}

func BenchmarkBuildTree(b *testing.B) {
	rows := sample(3000, 11)
	w := figure11Workload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(schema, rows, w, 3000, Config{MaxPartitions: 16})
	}
}

func BenchmarkRoute(b *testing.B) {
	rows := sample(3000, 12)
	tree := Build(schema, rows, figure11Workload(), 3000, Config{MaxPartitions: 16})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Route(rows[i%len(rows)])
	}
}

func ExampleBuild() {
	rows := sample(2000, 13)
	tree := Build(schema, rows, figure11Workload(), 2000, Config{MaxPartitions: 4})
	fmt.Println(tree.NumPartitions() > 1)
	// Output: true
}
