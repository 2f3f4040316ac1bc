// Command benchrunner executes the perf benchmark suite and emits a
// schema-versioned JSON report, or diffs two such reports for CI's
// regression gate (DESIGN.md §14).
//
// Run the suite and write a report:
//
//	benchrunner -out BENCH_12.json
//	benchrunner -out bench.json -short          # CI smoke iterations
//	benchrunner -out bench.json -filter n256    # subset by name
//
// Gate a fresh report against a committed baseline (exit 1 on any
// benchmark whose ns/op or allocs/op grew more than -tolerance, or on
// missing coverage):
//
//	benchrunner -compare bench.json -base BENCH_12.json
//
// Enforce a fresh report's absolute expectations (the allocation caps):
//
//	benchrunner -out bench.json -check
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"adhocgrid/internal/perf"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchrunner: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("benchrunner", flag.ContinueOnError)
	var (
		outPath   = fs.String("out", "", "write the suite report to this file (empty = stdout)")
		short     = fs.Bool("short", false, "reduced iteration counts (CI smoke)")
		iters     = fs.Int("iters", 0, "override every benchmark's iteration count (0 = suite defaults)")
		filter    = fs.String("filter", "", "comma-separated name substrings selecting a subset of the suite")
		compare   = fs.String("compare", "", "report to gate (skips running the suite)")
		base      = fs.String("base", "", "baseline report for -compare")
		tolerance = fs.Float64("tolerance", perf.DefaultTolerance, "relative ns/op growth allowed before failing")
		check     = fs.Bool("check", false, "after running, fail unless the report meets the alloc caps")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare != "" {
		return runCompare(*compare, *base, *tolerance, out)
	}
	opts := perf.Options{Iters: *iters, Short: *short}
	if *filter != "" {
		opts.Filter = strings.Split(*filter, ",")
	}
	report, err := perf.Run(opts)
	if err != nil {
		return err
	}
	if *outPath == "" {
		if err := perf.Write(out, report); err != nil {
			return err
		}
	} else {
		if err := perf.WriteFile(*outPath, report); err != nil {
			return err
		}
		//lint:errdrop best-effort status line to stdout; the report itself is on disk
		fmt.Fprintf(out, "benchrunner: wrote %d benchmarks to %s (gomaxprocs=%d)\n",
			len(report.Benchmarks), *outPath, report.GoMaxProcs)
	}
	if *check {
		verdict, cerr := perf.CheckVerdict(report)
		if cerr != nil {
			return cerr
		}
		// A check that could not run is not evidence; say so instead of
		// printing the same line as a measured pass.
		if verdict.Vacuous {
			//lint:errdrop best-effort status line to stdout; exit code carries the verdict
			fmt.Fprintf(out, "benchrunner: check SKIP (vacuous: %s)\n", verdict.Reason)
		} else {
			//lint:errdrop best-effort status line to stdout; exit code carries the verdict
			fmt.Fprintf(out, "benchrunner: expectations met (%s)\n", verdict.Reason)
		}
	}
	return nil
}

// runCompare loads both reports and applies the regression gate.
func runCompare(curPath, basePath string, tolerance float64, out *os.File) error {
	if basePath == "" {
		return fmt.Errorf("-compare requires -base <baseline.json>")
	}
	cur, err := perf.ReadFile(curPath)
	if err != nil {
		return err
	}
	baseline, err := perf.ReadFile(basePath)
	if err != nil {
		return err
	}
	if _, err := perf.Compare(cur, baseline, tolerance); err != nil {
		return err
	}
	//lint:errdrop best-effort status line to stdout; exit code carries the verdict
	fmt.Fprintf(out, "benchrunner: %s within %.0f%% of %s on all %d baseline benchmarks\n",
		curPath, 100*tolerance, basePath, len(baseline.Benchmarks))
	return nil
}
