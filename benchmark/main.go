// Command lakebench is the repository's benchmark: five named workloads
// over the in-process lake, measured on two clocks (wall time of the Go
// implementation, virtual time of the simulated devices), with a
// correctness gate on every output and a per-layer ladder on traced
// runs. See README.md next to this file and BENCHMARK.json at the
// repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/metrics"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and print the contract line; empty runs every workload")
		seed         = flag.Uint64("seed", 1, "seed every input is generated from")
		seconds      = flag.Float64("seconds", nominalSeconds, "nominal measured length of a run; scales the number of rounds, never a round")
		trace        = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run and layer ladder, per-layer metrics")
		smoke        = flag.Bool("smoke", false, "1/50 of the per-round counts and one round")
		out          = flag.String("out", "", "directory for result files (e2e.json, layers.json, spans.jsonl, CPU profiles)")
		runs         = flag.Int("runs", 1, "with no -workload: untraced runs per workload, on seeds seed, seed+1, ...")
		compare      = flag.Bool("compare", false, "compare two result directories: -compare A B")
		contract     = flag.Bool("contract", false, "print BENCHMARK.json as this program defines it")
	)
	flag.Parse()
	var err error
	switch {
	case *contract:
		var doc []byte
		if doc, err = contractJSON(); err == nil {
			_, err = os.Stdout.Write(doc)
		}
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("usage: -compare A B")
		} else {
			err = compareSets(flag.Arg(0), flag.Arg(1))
		}
	case *workloadName == "":
		err = runAll(*seed, *seconds, *smoke, *runs, *out)
	default:
		err = runOne(*workloadName, *seed, *seconds, *trace == 1, *smoke, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lakebench:", err)
		os.Exit(1)
	}
}

func newWorkload(name string) workload {
	switch name {
	case "ingest":
		return &ingest{}
	case "warehouse":
		return &warehouse{}
	case "pipeline":
		return &pipeline{}
	case "rest":
		return &rest{}
	case "cluster":
		return &clusterWL{}
	}
	panic("unknown workload " + name)
}

// metricValue is one metric in the contract's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object a run prints as its last line.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOne runs one workload once and prints every metric it reports by
// name and unit, then the run's record (what runAll files under -out)
// and, as the last line, the contract's result line: the end-to-end
// metrics every workload reports on an untraced run, the named and
// per-layer metrics on a traced one. A failed correctness or determinism
// check is reported in the line and as a non-zero exit.
func runOne(name string, seed uint64, seconds float64, traced, smoke bool, out string) error {
	spec, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	var res *runResult
	var err error
	specs, contract := reported(name), endToEnd
	if traced {
		specs = perLayer()
		contract = specs
		res, err = tracedRun(spec, seed, seconds, smoke, out)
	} else {
		res, err = endToEndRun(spec, seed, seconds, smoke)
	}
	if err != nil {
		return err
	}
	line := resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	rec := runRecord{Workload: name, Seed: seed, resultLine: line}
	rec.Metrics = map[string]metricValue{}
	if traced {
		rec.Trace = 1
	}
	fmt.Printf("workload %s seed %d seconds %g trace %v\n", name, seed, seconds, traced)
	for _, m := range specs {
		v := res.Metrics[m.Name]
		rec.Metrics[m.Name] = metricValue{v, m.Unit}
		fmt.Printf("  %-42s %16.6g %s\n", m.Name, v, m.Unit)
	}
	for _, m := range contract {
		line.Metrics[m.Name] = rec.Metrics[m.Name]
	}
	for _, f := range res.fails {
		fmt.Fprintln(os.Stderr, "FAIL", name+":", f)
	}
	for _, v := range []any{rec, line} {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", name, res.Failed, res.Attempted)
	}
	return nil
}

// cpuSeconds reads the runtime's CPU accounting: seconds spent in the
// garbage collector and in total.
func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		total = s[1].Value.Float64()
	}
	return gc, total
}
