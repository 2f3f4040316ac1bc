// Command experiments regenerates every table and figure of the paper's
// evaluation (Tables 1-4, Figures 2-7). See DESIGN.md §3 for the
// experiment index and EXPERIMENTS.md for recorded results.
//
// Usage:
//
//	experiments [-scale default|bench|full] [-exp all|table1|...|fig7|horizon|robustness|faults|scaling|perf]
//	            [-seed N] [-workers N] [-n N] [-netc N] [-ndag N]
//
// The default scale reproduces the paper's experiment structure at
// |T|=256 with a 3x3 ETC/DAG suite; -scale full selects the paper's exact
// sizes (|T|=1024, 10x10 — hours of CPU time).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"adhocgrid/internal/exp"
)

// writeCSV stores one result's CSV next to the text output.
func writeCSV(dir, name string, write func(io.Writer) error) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: csv: %v\n", err)
		return
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: csv: %v\n", err)
		return
	}
	if err := write(f); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: csv %s: %v\n", path, err)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: csv %s: close: %v\n", path, err)
	}
}

// experimentNames lists every value -exp accepts besides "all", in the
// order main runs them.
var experimentNames = []string{
	"table1", "table2", "table3", "table4", "fig2", "fig3", "scaling", "faults",
	"robustness", "horizon", "fig4", "fig5", "fig6", "fig7", "perf",
}

// validExperiment reports whether -exp name (lower-cased) selects
// something to run.
func validExperiment(name string) bool {
	return name == "all" || slices.Contains(experimentNames, name)
}

func main() {
	scaleName := flag.String("scale", "default", "experiment scale: bench, default or full")
	expName := flag.String("exp", "all", "experiment to run: all, table1..table4, fig2..fig7, horizon, robustness, faults, scaling, perf")
	seed := flag.Uint64("seed", 0, "override the master seed (0 = scale default)")
	workers := flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	n := flag.Int("n", 0, "override subtask count")
	netc := flag.Int("netc", 0, "override number of ETC matrices")
	ndag := flag.Int("ndag", 0, "override number of DAGs")
	csvDir := flag.String("csvdir", "", "also write each result as CSV into this directory")
	flag.Parse()

	var sc exp.Scale
	switch *scaleName {
	case "bench":
		sc = exp.Bench()
	case "default":
		sc = exp.Default()
	case "full":
		sc = exp.Full()
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown scale %q\n", *scaleName)
		os.Exit(2)
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	if *workers != 0 {
		sc.Workers = *workers
	}
	if *n != 0 {
		sc.N = *n
	}
	if *netc != 0 {
		sc.NumETC = *netc
	}
	if *ndag != 0 {
		sc.NumDAG = *ndag
	}

	want := strings.ToLower(*expName)
	if !validExperiment(want) {
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (want all, %s)\n",
			*expName, strings.Join(experimentNames, ", "))
		os.Exit(2)
	}
	run := func(name string) bool { return want == "all" || want == name }

	start := time.Now() //lint:wallclock elapsed-time reporting only; never a scheduling input
	fmt.Printf("# adhocgrid experiments — scale %q (|T|=%d, %dx%d scenarios, seed %d)\n\n",
		sc.Name, sc.N, sc.NumETC, sc.NumDAG, sc.Seed)

	if run("table1") {
		fmt.Println(exp.Table1())
	}
	if run("table2") {
		fmt.Println(exp.Table2())
	}

	if want == "table1" || want == "table2" {
		return // the static tables need no scenario environment
	}
	env, err := exp.NewEnv(sc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}

	if run("table3") {
		t3, err := env.Table3()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: table3: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(t3.Render())
		writeCSV(*csvDir, "table3.csv", t3.WriteCSV)
	}
	if run("table4") {
		t4 := env.Table4()
		fmt.Println(t4.Render())
		writeCSV(*csvDir, "table4.csv", t4.WriteCSV)
	}
	if run("fig2") {
		f2, err := env.Fig2(nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: fig2: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(f2.Render())
		writeCSV(*csvDir, "fig2.csv", f2.WriteCSV)
	}
	if run("fig3") {
		f3 := env.Fig3()
		fmt.Println(f3.Render())
		writeCSV(*csvDir, "fig3.csv", f3.WriteCSV)
	}
	if run("scaling") {
		scl, err := env.Scaling(nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: scaling: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(scl.Render())
	}
	if run("faults") {
		fs, err := env.FaultSweep()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: faults: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(fs.Render())
		writeCSV(*csvDir, "faults.csv", fs.WriteCSV)
	}
	if run("robustness") {
		rob, err := env.Robustness()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: robustness: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(rob.Render())
	}
	if run("horizon") {
		fh, err := env.HorizonSweep(nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: horizon: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(fh.Render())
		writeCSV(*csvDir, "horizon.csv", fh.WriteCSV)
	}
	if run("fig4") || run("fig5") || run("fig6") || run("fig7") || run("perf") {
		perf := env.Performance()
		writeCSV(*csvDir, "performance.csv", perf.WriteCSV)
		if run("fig4") || run("perf") {
			fmt.Println(perf.RenderFig4())
		}
		if run("fig5") || run("perf") {
			fmt.Println(perf.RenderFig5())
		}
		if run("fig6") || run("perf") {
			fmt.Println(perf.RenderFig6())
		}
		if run("fig7") || run("perf") {
			fmt.Println(perf.RenderFig7())
		}
	}
	fmt.Printf("# completed in %s\n", time.Since(start).Round(time.Millisecond)) //lint:wallclock elapsed-time reporting only; never a scheduling input
}
