package main

import (
	"fmt"
	"math"
)

// compareSets prints one row per (end-to-end metric, workload) for two
// result sets of untraced runs, A the parent and B the change: both
// medians and quartiles, how much worse B is, the bound and a verdict.
//
// Wall-clock metrics are judged on the sets' medians:
//
//	ok          B's median is no worse than A's by more than the bound
//	worse       it is
//	unresolved  the spread between either set's own quartiles is wider
//	            than the bound, so the comparison cannot tell (not
//	            applied to setup_s, as in the acceptance procedure)
//
// Exact (virtual-time and count) metrics repeat for a seed, so they are
// judged seed by seed, on the seeds both sets ran, with no spread test:
// the change is the worst of the per-seed changes, held to exactBound.
//
//	ok          no common seed is worse by more than exactBound
//	worse       one is
//	differs     both sets are of the same commit and a seed's values are
//	            not identical: the benchmark is not deterministic
//	no seed     the sets share no seed
//
// Any verdict but ok makes the command fail.
func compareSets(dirA, dirB string) error {
	a, err := readSet(dirA)
	if err != nil {
		return err
	}
	b, err := readSet(dirB)
	if err != nil {
		return err
	}
	fmt.Printf("A: %s  commit %s  go %s  nproc %d  seconds %g\n", dirA, a.Meta.Commit, a.Meta.GoVersion, a.Meta.NProc, a.Meta.Seconds)
	fmt.Printf("B: %s  commit %s  go %s  nproc %d  seconds %g\n", dirB, b.Meta.Commit, b.Meta.GoVersion, b.Meta.NProc, b.Meta.Seconds)
	fmt.Printf("%-10s %-28s %12s %12s %12s | %12s %12s %12s | %8s %8s %6s  %s\n",
		"workload", "metric", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "change", "spread", "bound", "verdict")
	sameCommit := a.Meta.Commit == b.Meta.Commit
	bad := 0
	for _, w := range workloads {
		for _, m := range reported(w.Name) {
			va, sa := valuesOf(a, w.Name, m.Name)
			vb, sb := valuesOf(b, w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-10s %-28s missing from one set\n", w.Name, m.Name)
				bad++
				continue
			}
			ma, mb := median(va), median(vb)
			qa1, qa3 := quartiles(va)
			qb1, qb3 := quartiles(vb)
			var change, bound float64
			var verdict string
			spread := "-"
			if m.Exact {
				bound = exactBound
				var common int
				var identical bool
				change, common, identical = worstBySeed(sa, sb, m.Better)
				switch {
				case common == 0:
					verdict = "no seed"
				case sameCommit && !identical:
					verdict = "differs"
				case change > bound:
					verdict = "worse"
				default:
					verdict = "ok"
				}
			} else {
				bound = m.Bound
				change = worseBy(ma, mb, m.Better)
				s := math.Max((qa3-qa1)/math.Abs(ma), (qb3-qb1)/math.Abs(mb))
				spread = fmt.Sprintf("%.2f%%", s*100)
				switch {
				case change > bound:
					verdict = "worse"
				case s > bound && m.Name != "setup_s":
					verdict = "unresolved"
				default:
					verdict = "ok"
				}
			}
			if verdict != "ok" {
				bad++
			}
			fmt.Printf("%-10s %-28s %12.6g %12.6g %12.6g | %12.6g %12.6g %12.6g | %+7.2f%% %8s %5.0f%%  %s\n",
				w.Name, m.Name, qa1, ma, qa3, qb1, mb, qb3, change*100, spread, bound*100, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of the comparisons are not ok", bad)
	}
	return nil
}

// worseBy is the share of a by which b is worse, whatever the metric's
// direction; negative when b is better.
func worseBy(a, b float64, better string) float64 {
	change := (b - a) / math.Abs(a)
	if better == "higher" {
		change = -change
	}
	return change
}

// worstBySeed compares an exact metric on the seeds both sets ran: the
// worst per-seed change from a to b, how many seeds are common, and
// whether every common seed has the identical value in both.
func worstBySeed(a, b map[uint64]float64, better string) (worst float64, common int, identical bool) {
	worst, identical = math.Inf(-1), true
	for seed, va := range a {
		vb, ok := b[seed]
		if !ok {
			continue
		}
		common++
		identical = identical && va == vb
		if va != vb {
			worst = math.Max(worst, worseBy(va, vb, better))
		} else {
			worst = math.Max(worst, 0)
		}
	}
	if common == 0 {
		worst = 0
	}
	return worst, common, identical
}

// valuesOf collects one metric of one workload over a set's runs, as a
// list and by seed.
func valuesOf(s resultSet, workload, metric string) ([]float64, map[uint64]float64) {
	var vals []float64
	bySeed := map[uint64]float64{}
	for _, r := range s.Runs {
		if r.Workload != workload {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			vals = append(vals, v.Value)
			bySeed[r.Seed] = v.Value
		}
	}
	return vals, bySeed
}
