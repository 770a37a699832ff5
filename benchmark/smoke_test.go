package main

import (
	"bytes"
	"os"
	"regexp"
	"sync"
	"testing"
)

// smokeTraced runs every workload's traced run and ladder once, at
// -smoke scale, for the tests that read its results.
var smokeTraced = sync.OnceValue(func() map[string]*runResult {
	out := map[string]*runResult{}
	for _, spec := range workloads {
		res, err := tracedRun(spec, 7, nominalSeconds, true, "")
		if err != nil {
			res = nil
		}
		out[spec.Name] = res
	}
	return out
})

// TestSmoke runs every workload at -smoke scale, untraced and traced
// with the ladder, and checks the correctness gate and that every metric
// the contract names is reported.
func TestSmoke(t *testing.T) {
	for _, spec := range workloads {
		res, err := endToEndRun(spec, 7, nominalSeconds, true)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if !res.Correct || res.Attempted < 1 {
			t.Errorf("%s: %d of %d operations failed: %v", spec.Name, res.Failed, res.Attempted, res.fails)
		}
		for _, m := range reported(spec.Name) {
			if _, ok := res.Metrics[m.Name]; !ok {
				t.Errorf("%s: end-to-end metric %s not reported", spec.Name, m.Name)
			}
		}

		// Determinism: the same seed gives the same virtual-time and
		// count metrics in a second run.
		again, err := endToEndRun(spec, 7, nominalSeconds, true)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		for _, m := range reported(spec.Name) {
			if m.Exact && res.Metrics[m.Name] != again.Metrics[m.Name] {
				t.Errorf("%s: %s is %v, then %v, for one seed", spec.Name, m.Name, res.Metrics[m.Name], again.Metrics[m.Name])
			}
		}

		traced := smokeTraced()[spec.Name]
		if traced == nil {
			t.Fatalf("%s: traced run failed", spec.Name)
		}
		if !traced.Correct {
			t.Errorf("%s traced: %d of %d operations failed: %v", spec.Name, traced.Failed, traced.Attempted, traced.fails)
		}
		for _, m := range perLayer() {
			if _, ok := traced.Metrics[m.Name]; !ok && m.on(spec.Name) {
				t.Errorf("%s: traced run does not report %s", spec.Name, m.Name)
			}
		}
	}
}

// TestIsolation checks what the workloads were built to isolate, on the
// counters (which do not depend on scale or on the machine).
func TestIsolation(t *testing.T) {
	calls := map[string]map[string]float64{}
	for name, res := range smokeTraced() {
		if res == nil {
			t.Fatalf("%s: traced run failed", name)
		}
		calls[name] = res.Metrics
	}
	for name, m := range calls {
		if name != "warehouse" && m["cache.calls"] != 0 {
			t.Errorf("%s: cache.calls = %v, want 0 off warehouse", name, m["cache.calls"])
		}
		if name != "cluster" && m["cluster.calls"] != 0 {
			t.Errorf("%s: cluster.calls = %v, want 0 off cluster", name, m["cluster.calls"])
		}
		if name != "rest" && m["gateway.calls"]+m["tenant.calls"] != 0 {
			t.Errorf("%s: gateway or tenant calls off rest", name)
		}
	}
	for _, layer := range []string{"ec", "cache", "cluster", "gateway", "tenant", "query", "lakehouse", "tableobj", "colfile", "convert"} {
		if v := calls["ingest"][layer+".calls"]; v != 0 {
			t.Errorf("ingest: %s.calls = %v, want 0", layer, v)
		}
	}
	if calls["warehouse"]["cache.calls"] == 0 || calls["cluster"]["cluster.calls"] == 0 || calls["pipeline"]["ec.calls"] == 0 {
		t.Error("a workload does not reach the layer it exists for")
	}
}

// TestContractFile keeps BENCHMARK.json and spec.go the same document,
// inside the limits the contract sets.
func TestContractFile(t *testing.T) {
	want, err := contractJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from spec.go; regenerate it with: lakebench -contract > BENCHMARK.json")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("unit %q of %s is malformed", u, n)
		}
	}
	for _, w := range workloads {
		check(w.Name, "")
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range perLayer() {
		check(m.Name, m.Unit)
	}
	if !hasSetup || len(endToEnd) > 16 || len(perLayer()) > 128 || len(workloads) < 2 || len(workloads) > 8 {
		t.Error("contract limits violated")
	}
}

// TestWorstBySeed pins how -compare judges exact metrics: seed by seed,
// by the worst common seed, and not at all without one.
func TestWorstBySeed(t *testing.T) {
	a := map[uint64]float64{1: 100, 2: 200, 3: 50}
	worst, common, identical := worstBySeed(a, map[uint64]float64{1: 100, 2: 200, 9: 1}, "lower")
	if worst != 0 || common != 2 || !identical {
		t.Errorf("identical sets: worst %v, common %d, identical %v", worst, common, identical)
	}
	worst, _, identical = worstBySeed(a, map[uint64]float64{1: 90, 2: 210}, "lower")
	if worst != 0.05 || identical {
		t.Errorf("one seed up 5%%, one down 10%%: worst %v, identical %v; want 0.05, false", worst, identical)
	}
	worst, _, _ = worstBySeed(a, map[uint64]float64{1: 90, 2: 210}, "higher")
	if worst != 0.1 {
		t.Errorf("higher is better: worst %v, want 0.1", worst)
	}
	if _, common, _ = worstBySeed(a, map[uint64]float64{7: 1}, "lower"); common != 0 {
		t.Errorf("disjoint seeds: %d common", common)
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4),
// which the acceptance procedure computes spreads with.
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 30, 20})
	if q1 != 10 || q3 != 30 {
		t.Errorf("quartiles of 10,20,30 = %v, %v; want 10, 30", q1, q3)
	}
}
