// Command fleetbench is the end-to-end fleet benchmark: it boots one
// slrhrouter over two `slrhd -workers 1` daemons on loopback, drives a
// named closed-loop workload through the router for a fixed time, checks
// every answer, and prints each metric by name and unit. With -trace 1
// it instead reports the per-layer ledger: /metrics deltas and /proc
// figures of the measured run, plus a traced in-process replay that
// times the public calls serve.ExecuteArena makes. See README.md.
//
// Run it through run.sh, which builds the daemons from the tree first:
//
//	bash bench/run.sh --workload hit_zipf --seed 7 --seconds 25 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// config is the parsed command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	bin      string
	traceOut string
	runs     int
}

// A run boots the fleet at least minSetups times, and again while the
// boots so far took less than setupBudget, up to maxSetups: quick set-ups
// get many samples and the catalogue warm-up of hit_zipf only a few.
// setup_s is the median of the boots; the last fleet is the one measured.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 1.5 // seconds
)

// result is one run's verdict and metrics.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
}

func run(args []string) int {
	fs := flag.NewFlagSet("fleetbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", paperMiss, "workload to drive: paper_miss, small_miss, hit_zipf or batch_sweep")
	fs.Uint64Var(&cfg.seed, "seed", 20040426, "seed the workload's request stream is generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured window, seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics (measured run plus traced replay) instead of the end-to-end ones")
	fs.StringVar(&cfg.bin, "bin", filepath.Join(".bench_build", "bin"), "directory holding the slrhd and slrhrouter binaries")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "trace document path (default .bench_build/trace-<workload>.json)")
	fs.IntVar(&cfg.runs, "runs", 1, "repeat the run K times with fresh fleets and report each metric's median, quartiles and spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", "trace-"+cfg.workload+".json")
	}
	if cfg.runs < 1 || cfg.seconds < 0 {
		fmt.Fprintln(os.Stderr, "fleetbench: -runs must be at least 1 and -seconds non-negative")
		return 2
	}
	s, err := newStream(cfg.workload, cfg.seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetbench: %v\n", err)
		return 2
	}
	for _, name := range []string{"slrhd", "slrhrouter"} {
		if _, err := os.Stat(filepath.Join(cfg.bin, name)); err != nil {
			fmt.Fprintf(os.Stderr, "fleetbench: %v (build the fleet with bench/run.sh)\n", err)
			return 1
		}
	}

	ctx := context.Background()
	var runs []*result
	for k := 0; k < cfg.runs; k++ {
		r, err := measure(ctx, cfg, s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fleetbench: %s run %d: %v\n", cfg.workload, k+1, err)
			return 1
		}
		runs = append(runs, r)
	}
	final := summarize(runs)
	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	out := map[string]any{}
	for _, m := range names {
		v, ok := final.metrics[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "fleetbench: metric %s is %v; the run cannot be reported\n", m.name, v)
			return 1
		}
		fmt.Printf("%-28s %14.6g %s\n", m.name, v, m.unit)
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": final.correct, "attempted": final.attempted, "failed": final.failed, "metrics": out,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !final.correct {
		return 1
	}
	return 0
}

// summarize folds repeated runs into one result: every metric's median,
// with the quartiles and (max−min)/median spread printed per metric.
func summarize(runs []*result) *result {
	if len(runs) == 1 {
		return runs[0]
	}
	final := &result{correct: true, metrics: map[string]float64{}}
	vals := map[string][]float64{}
	for _, r := range runs {
		final.correct = final.correct && r.correct
		final.attempted += r.attempted
		final.failed += r.failed
		for k, v := range r.metrics {
			vals[k] = append(vals[k], v)
		}
	}
	names := make([]string, 0, len(vals))
	for k := range vals {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-28s %12s %12s %12s %10s  (%d runs)\n", "metric", "median", "q1", "q3", "spread", len(runs))
	for _, k := range names {
		xs := vals[k]
		med := median(xs)
		q1, q3 := quartiles(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		fmt.Printf("%-28s %12.6g %12.6g %12.6g %9.2f%%\n", k, med, q1, q3, 100*ratio(hi-lo, math.Abs(med)))
		final.metrics[k] = med
	}
	return final
}

// measure is one run: boot the fleet several times (timing each to
// ready and warm), drive the workload through the last fleet for
// -seconds, tear it down, recompute a sample of the answers in-process,
// and, with -trace 1, replay a prefix traced.
func measure(ctx context.Context, cfg config, s *stream) (*result, error) {
	client := newClient(s.clients)
	defer client.CloseIdleConnections()
	var setups []float64
	var spent float64
	var f *fleet
	var expected [][]byte
	for {
		t0 := time.Now() //lint:wallclock set-up time measurement
		fl, err := startFleet(ctx, cfg.bin, client)
		if err != nil {
			return nil, err
		}
		exp, err := warm(ctx, client, fl.router.url, s)
		d := time.Since(t0).Seconds() //lint:wallclock closes the set-up time pair
		setups, spent = append(setups, d), spent+d
		last := len(setups) >= maxSetups || (len(setups) >= minSetups && spent >= setupBudget)
		if err != nil || !last {
			if serr := fl.stop(); err == nil {
				err = serr
			}
		}
		if err != nil {
			return nil, err
		}
		if last {
			f, expected = fl, exp
			break
		}
	}
	w, err := window(ctx, cfg, s, f, client, expected)
	if serr := f.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	w.m["setup_s"] = median(setups)

	res := &result{attempted: w.o.items, failed: w.o.failed, metrics: w.m}
	wrong := append(w.o.wrong, oracle(w.o.kept, s.clients)...)
	if cfg.trace {
		tm, twrong, err := traced(ctx, s, prefixes[s.name], cfg.traceOut)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		for k, v := range tm {
			res.metrics[k] = v
		}
		wrong = append(wrong, twrong...)
	}
	for _, e := range w.o.errs {
		fmt.Fprintf(os.Stderr, "fleetbench: failed: %s\n", e)
	}
	for _, msg := range wrong {
		fmt.Fprintf(os.Stderr, "fleetbench: WRONG: %s\n", msg)
	}
	res.correct = len(wrong) == 0
	return res, nil
}
