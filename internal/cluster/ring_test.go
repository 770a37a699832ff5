package cluster

import (
	"strconv"
	"testing"
)

func TestRingSpread(t *testing.T) {
	r := newRing(5)
	all := func(int) bool { return true }
	counts := make(map[int]int)
	for k := 0; k < 1000; k++ {
		pref := r.place("key-"+strconv.Itoa(k), 3, all)
		if len(pref) != 3 {
			t.Fatalf("want 3 nodes, got %v", pref)
		}
		seen := make(map[int]bool)
		for _, n := range pref {
			if seen[n] {
				t.Fatalf("duplicate node in %v", pref)
			}
			seen[n] = true
		}
		counts[pref[0]]++
	}
	// Primary placements should spread: no node should own more than
	// half or fewer than 5% of 1000 keys at 64 vnodes.
	for n, c := range counts {
		if c > 500 || c < 50 {
			t.Fatalf("node %d owns %d/1000 primaries — unbalanced", n, c)
		}
	}
}

func TestRingStabilityOnDeath(t *testing.T) {
	r := newRing(5)
	all := func(int) bool { return true }
	dead := 2
	without := func(n int) bool { return n != dead }
	moved := 0
	for k := 0; k < 1000; k++ {
		key := "key-" + strconv.Itoa(k)
		before := r.place(key, 3, all)
		after := r.place(key, 3, without)
		if len(after) != 3 {
			t.Fatalf("want 3 survivors, got %v", after)
		}
		for _, n := range after {
			if n == dead {
				t.Fatalf("dead node placed: %v", after)
			}
		}
		// Keys that never touched the dead node must not move at all —
		// the consistent-hashing stability property.
		touched := false
		for _, n := range before {
			if n == dead {
				touched = true
			}
		}
		if !touched {
			for i := range before {
				if before[i] != after[i] {
					t.Fatalf("key %s moved without touching dead node: %v -> %v", key, before, after)
				}
			}
		} else {
			moved++
		}
	}
	// Only keys whose preference touched the dead node may move; the
	// exact-equality check above is the real stability property. Vnode
	// arc imbalance makes the touched fraction vary around 3/5, but a
	// meaningful share must always survive untouched.
	if moved > 950 {
		t.Fatalf("%d/1000 keys moved — ring is not stable", moved)
	}
}

// TestRingGrowMovementBound: the property the join-time movement bound
// rests on. For every cluster size N in 2..9, growing the ring by one
// node may re-home at most (1/(N+1))·(1+moveSlack) of 10k sampled keys'
// primary placements, and every key that does move must move TO the new
// node — consistent hashing only carves arcs out for the newcomer, it
// never shuffles keys between survivors.
func TestRingGrowMovementBound(t *testing.T) {
	const keys = 10_000
	all := func(int) bool { return true }
	for n := 2; n <= 9; n++ {
		before := newRing(n)
		after := newRing(n)
		after.addNode(n)
		moved := 0
		for k := 0; k < keys; k++ {
			key := "sample-" + strconv.Itoa(k) + "-key"
			b := before.place(key, 1, all)
			a := after.place(key, 1, all)
			if b[0] != a[0] {
				if a[0] != n {
					t.Fatalf("N=%d key %q moved %d -> %d, not to the new node", n, key, b[0], a[0])
				}
				moved++
			}
		}
		bound := int(float64(keys) / float64(n+1) * (1 + moveSlack))
		if moved > bound {
			t.Fatalf("N=%d grow moved %d/%d primaries, bound %d", n, moved, keys, bound)
		}
		if moved == 0 {
			t.Fatalf("N=%d grow moved nothing — the new node owns no arcs", n)
		}
	}
}

// TestRingGrowEqualsBirth: a ring grown one node at a time has exactly
// the point set of a ring born at the final size, so placement after a
// join is indistinguishable from a cluster that always had N+1 nodes —
// the determinism the replayable drills depend on.
func TestRingGrowEqualsBirth(t *testing.T) {
	grown := newRing(2)
	for n := 2; n < 9; n++ {
		grown.addNode(n)
	}
	born := newRing(9)
	all := func(int) bool { return true }
	for k := 0; k < 1000; k++ {
		key := "eq-" + strconv.Itoa(k)
		g := grown.place(key, 3, all)
		b := born.place(key, 3, all)
		for i := range b {
			if g[i] != b[i] {
				t.Fatalf("key %q places %v grown vs %v born", key, g, b)
			}
		}
	}
}

// TestRingShrinkMovesOnlyDepartedArcs: removing a node re-homes only
// the keys whose preference touched it; every other key's full
// preference list is untouched, byte for byte.
func TestRingShrinkMovesOnlyDepartedArcs(t *testing.T) {
	const keys = 10_000
	all := func(int) bool { return true }
	for n := 3; n <= 9; n++ {
		departed := n / 2
		before := newRing(n)
		after := newRing(n)
		after.removeNode(departed)
		moved := 0
		for k := 0; k < keys; k++ {
			key := "shrink-" + strconv.Itoa(k) + "-key"
			b := before.place(key, 3, all)
			a := after.place(key, 3, all)
			touched := false
			for _, node := range b {
				if node == departed {
					touched = true
				}
			}
			if !touched {
				for i := range b {
					if a[i] != b[i] {
						t.Fatalf("N=%d key %q moved %v -> %v without touching departed node %d",
							n, key, b, a, departed)
					}
				}
				continue
			}
			moved++
			for _, node := range a {
				if node == departed {
					t.Fatalf("N=%d departed node still placed for %q: %v", n, key, a)
				}
			}
		}
		// Preference width 3 touches the departed node for roughly 3/N of
		// keys; vnode variance stays well inside a 2x envelope.
		if ceiling := int(float64(keys) * 6.0 / float64(n)); moved > ceiling {
			t.Fatalf("N=%d shrink disturbed %d/%d keys, ceiling %d", n, moved, keys, ceiling)
		}
	}
}

func TestRingFewerAdmissibleThanWanted(t *testing.T) {
	r := newRing(3)
	only := func(n int) bool { return n == 1 }
	pref := r.place("k", 3, only)
	if len(pref) != 1 || pref[0] != 1 {
		t.Fatalf("want [1], got %v", pref)
	}
	if got := r.place("k", 0, only); got != nil {
		t.Fatalf("want nil for want=0, got %v", got)
	}
}
