package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"regexp"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
)

// cpuProfile is a CPU profile of the traced rounds, the ladder's
// independent cross-check: a diagnostic, not a named metric.
type cpuProfile struct {
	path string
	f    *os.File
}

func startCPUProfile(path string) (*cpuProfile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &cpuProfile{path: path, f: f}, nil
}

func (p *cpuProfile) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

var (
	pkgOf  = regexp.MustCompile(`streamlake/internal/(?:[a-z]+/)*([a-z]+)\.`)
	flatOf = regexp.MustCompile(`^\s*([0-9.]+)(ms|s|us)\s`)
)

// report prints flat CPU time grouped by streamlake/internal/<pkg>, as
// `go tool pprof -top` sees it, beside each layer's share of the ladder's
// self time, and flags layers where the two differ by more than 15
// points. Flat time leaves the runtime's work (allocation, GC, memmove)
// with the runtime, the ladder charges it to the layer that caused it,
// so layers that copy or allocate a lot are expected to stand out.
func (p *cpuProfile) report(workload string, self map[string]float64) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=100000", p.path).Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "WARN %s: go tool pprof: %v\n", workload, err)
		return
	}
	flat := map[string]float64{}
	var flatTotal float64
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		m := flatOf.FindStringSubmatch(line)
		pkg := pkgOf.FindStringSubmatch(line)
		if m == nil || pkg == nil {
			continue
		}
		v, _ := strconv.ParseFloat(m[1], 64)
		switch m[2] {
		case "s":
			v *= 1000
		case "us":
			v /= 1000
		}
		flat[pkg[1]] += v
		flatTotal += v
	}
	var selfTotal float64
	for _, v := range self {
		selfTotal += v
	}
	if flatTotal == 0 || selfTotal == 0 {
		return
	}
	fmt.Printf("cpu profile %s: flat time in streamlake/internal/<pkg> against ladder self time (shares of their own totals)\n", workload)
	fmt.Printf("  %-12s %10s %8s %10s %8s\n", "layer", "flat ms", "flat %", "self ms", "self %")
	for _, layer := range layers {
		f, s := flat[layer], self[layer]
		if f == 0 && s == 0 {
			continue
		}
		fp, sp := 100*f/flatTotal, 100*s/selfTotal
		mark := ""
		if math.Abs(fp-sp) > 15 {
			mark = "  <- shares differ by more than 15 points"
		}
		fmt.Printf("  %-12s %10.1f %7.1f%% %10.1f %7.1f%%%s\n", layer, f, fp, s, sp, mark)
	}
	var others []string
	for pkg, f := range flat {
		if !slices.Contains(layers, pkg) && f/flatTotal > 0.02 {
			others = append(others, fmt.Sprintf("%s %.1f%%", pkg, 100*f/flatTotal))
		}
	}
	if len(others) > 0 {
		fmt.Printf("  other packages: %s\n", strings.Join(others, ", "))
	}
}
