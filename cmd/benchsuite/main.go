// Command benchsuite regenerates every table and figure of the paper's
// evaluation (Section VII) over the reproduction's simulated substrate
// and prints them as text tables.
//
// Usage:
//
//	benchsuite [-experiment all|table1|fig1b|fig14a|fig14b|fig14c|fig14d|fig15a|fig15b|fig16a|fig16autil|fig16bc|ablations] [-quick] [-seed N]
//
// -quick shrinks the sweeps for a fast smoke run; the default runs the
// full scaled experiment set (a few minutes).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"streamlake/internal/bench"
)

func main() {
	experiment := flag.String("experiment", "all", "which experiment to run")
	quick := flag.Bool("quick", false, "shrink sweeps for a fast run")
	seed := flag.Uint64("seed", 1, "deterministic seed")
	flag.Parse()

	run := func(name string, fn func() error) {
		if *experiment != "all" && *experiment != name {
			return
		}
		start := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s finished in %v]\n", name, time.Since(start).Round(time.Millisecond))
	}

	run("table1", func() error {
		scales := bench.DefaultTable1Scales
		if *quick {
			scales = []int{10_000, 50_000, 100_000}
		}
		bench.Table1Report(bench.RunTable1(scales, *seed)).Fprint(os.Stdout)
		return nil
	})
	run("fig1b", func() error {
		res, err := bench.RunFig1b(*seed)
		if err != nil {
			return err
		}
		bench.Fig1bReport(res).Fprint(os.Stdout)
		return nil
	})
	run("fig14a", func() error {
		rates := bench.DefaultFig14Rates
		if *quick {
			rates = []float64{100_000, 1_000_000}
		}
		points, err := bench.RunFig14a(rates)
		if err != nil {
			return err
		}
		bench.Fig14aReport(points).Fprint(os.Stdout)
		return nil
	})
	run("fig14b", func() error {
		rates := bench.DefaultFig14Rates
		if *quick {
			rates = []float64{100_000, 1_000_000}
		}
		points, err := bench.RunFig14b(rates)
		if err != nil {
			return err
		}
		bench.Fig14bReport(points).Fprint(os.Stdout)
		return nil
	})
	run("fig14c", func() error {
		res, err := bench.RunFig14c()
		if err != nil {
			return err
		}
		bench.Fig14cReport(res).Fprint(os.Stdout)
		return nil
	})
	run("fig14d", func() error {
		points, err := bench.RunFig14d()
		if err != nil {
			return err
		}
		bench.Fig14dReport(points).Fprint(os.Stdout)
		return nil
	})
	run("fig15a", func() error {
		parts := bench.DefaultFig15aPartitions
		if *quick {
			parts = []int{24, 96}
		}
		points, err := bench.RunFig15a(parts)
		if err != nil {
			return err
		}
		bench.Fig15aReport(points).Fprint(os.Stdout)
		return nil
	})
	run("fig15b", func() error {
		budgets := bench.DefaultFig15bBudgets
		if *quick {
			budgets = []int64{64 << 10, 4 << 20}
		}
		points, err := bench.RunFig15b(budgets)
		if err != nil {
			return err
		}
		bench.Fig15bReport(points).Fprint(os.Stdout)
		return nil
	})
	run("fig16a", func() error {
		volumes := bench.DefaultFig16aVolumes
		if *quick {
			volumes = []int{8, 16}
		}
		points, err := bench.RunFig16a(volumes, *seed)
		if err != nil {
			return err
		}
		bench.Fig16aReport(points).Fprint(os.Stdout)
		return nil
	})
	run("fig16autil", func() error {
		rates := []float64{2, 5, 10, 20}
		if *quick {
			rates = []float64{5, 20}
		}
		bench.Fig16aUtilReport(bench.RunFig16aUtil(rates, *seed)).Fprint(os.Stdout)
		return nil
	})
	run("fig16bc", func() error {
		sfs := bench.DefaultFig16bcSFs
		if *quick {
			sfs = []int{2, 5}
		}
		points, err := bench.RunFig16bc(sfs, *seed)
		if err != nil {
			return err
		}
		bench.Fig16bcReport(points).Fprint(os.Stdout)
		return nil
	})
	run("ablations", func() error {
		busRes := bench.RunAblationBus(10_000)
		ecRes, err := bench.RunAblationEC()
		if err != nil {
			return err
		}
		pd, err := bench.RunAblationPushdown(*seed)
		if err != nil {
			return err
		}
		bench.AblationReport(busRes, ecRes, pd, bench.RunAblationSPN(*seed)).Fprint(os.Stdout)
		return nil
	})
}
