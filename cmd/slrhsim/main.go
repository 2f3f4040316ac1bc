// Command slrhsim runs one resource-management heuristic on one generated
// ad hoc grid scenario and reports the resulting schedule metrics. It is
// the single-run workhorse behind the experiment harness, exposed for
// interactive exploration. With -json it emits the exact response schema
// (and bytes) of the slrhd service's POST /v1/map, which the parity tests
// pin down.
//
// Examples:
//
//	slrhsim -n 256 -case A -heuristic slrh1 -alpha 0.5 -beta 0.3
//	slrhsim -n 256 -case A -heuristic slrh1 -alpha 0.5 -beta 0.3 -lose 1@40000
//	slrhsim -n 256 -faults 'lose:1@40000,fail:t17@52000,slow:links*0.5@[60000,90000],rejoin:1@110000'
//	slrhsim -n 128 -heuristic maxmax -alpha 1 -beta 0 -assignments out.csv
//	slrhsim -n 96 -seed 1 -json
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"adhocgrid/internal/core"
	"adhocgrid/internal/fault"
	"adhocgrid/internal/grid"
	"adhocgrid/internal/maxmax"
	"adhocgrid/internal/rng"
	"adhocgrid/internal/sched"
	"adhocgrid/internal/serve"
	"adhocgrid/internal/sim"
	"adhocgrid/internal/trace"
	"adhocgrid/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "slrhsim: %v\n", err)
		os.Exit(1)
	}
}

// run executes one CLI invocation, writing its report to stdout. It is
// the whole command behind a testable seam: the parity tests drive it
// with -json and compare the bytes against the service's responses.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("slrhsim", flag.ContinueOnError)
	n := fs.Int("n", 256, "number of subtasks")
	seed := fs.Uint64("seed", 1, "workload seed")
	caseName := fs.String("case", "A", "grid configuration: A, B or C")
	heuristic := fs.String("heuristic", "slrh1", "slrh1, slrh2, slrh3 or maxmax")
	alpha := fs.Float64("alpha", 0.5, "objective weight for T100")
	beta := fs.Float64("beta", 0.3, "objective weight for energy (gamma = 1-alpha-beta)")
	deltaT := fs.Int64("deltat", core.DefaultDeltaT, "SLRH timestep in clock cycles")
	horizon := fs.Int64("horizon", core.DefaultHorizon, "SLRH receding horizon in clock cycles")
	adaptive := fs.Bool("adaptive", false, "enable on-the-fly weight adaptation (extension)")
	lose := fs.String("lose", "", "machine loss events, comma-separated machine@cycle (sugar for lose: items of -faults)")
	faults := fs.String("faults", "", "fault plan: comma-separated lose:M@C, rejoin:M@C, fail:tT@C, slow:links*F@[C1,C2]")
	traceFile := fs.String("trace", "", "write per-timestep trace CSV to this file")
	assignFile := fs.String("assignments", "", "write the final mapping CSV to this file")
	energyScale := fs.Float64("energyscale", 0, "battery multiplier (0 = auto |T|/1024)")
	verify := fs.Bool("verify", true, "independently verify the schedule")
	gantt := fs.Int("gantt", 0, "print a textual Gantt chart this many columns wide (0 = off)")
	chain := fs.Bool("chain", false, "print the critical chain that determined the makespan")
	jsonOut := fs.Bool("json", false, "emit the POST /v1/map response schema as JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *jsonOut {
		if *traceFile != "" || *assignFile != "" || *gantt > 0 || *chain {
			return fmt.Errorf("-trace/-assignments/-gantt/-chain are text-mode options; -json emits the service schema only")
		}
		if err := rejectDefaultedZeros(fs, *heuristic); err != nil {
			return err
		}
		return runJSON(stdout, *n, *seed, *caseName, *heuristic, *alpha, *beta,
			*deltaT, *horizon, *adaptive, *energyScale, *lose, *faults)
	}

	var c grid.Case
	switch strings.ToUpper(*caseName) {
	case "A":
		c = grid.CaseA
	case "B":
		c = grid.CaseB
	case "C":
		c = grid.CaseC
	default:
		return fmt.Errorf("unknown case %q", *caseName)
	}

	params := workload.DefaultParams(*n)
	params.EnergyScale = *energyScale
	scn, err := workload.Generate(params, rng.New(*seed))
	if err != nil {
		return fmt.Errorf("generate: %w", err)
	}
	inst, err := scn.Instantiate(c)
	if err != nil {
		return fmt.Errorf("instantiate: %w", err)
	}
	w := sched.NewWeights(*alpha, *beta)

	var (
		metrics    sched.Metrics
		state      *sched.State
		verifyPlan *fault.Plan
		extra      string
	)
	switch strings.ToLower(*heuristic) {
	case "slrh1", "slrh2", "slrh3":
		variant := map[string]core.Variant{
			"slrh1": core.SLRH1, "slrh2": core.SLRH2, "slrh3": core.SLRH3,
		}[strings.ToLower(*heuristic)]
		cfg := core.DefaultConfig(variant, w)
		cfg.DeltaT = *deltaT
		cfg.Horizon = *horizon
		if *adaptive {
			cfg.Adaptive = core.NewAdaptiveController(w)
		}
		plan, err := parsePlan(*faults, *lose)
		if err != nil {
			return err
		}
		cfg.Faults = plan
		var rec *trace.Recorder
		if *traceFile != "" {
			rec = trace.NewRecorder()
			cfg.Observer = rec.Observe
		}
		res, err := core.Run(inst, cfg)
		if err != nil {
			return fmt.Errorf("run: %w", err)
		}
		metrics, state = res.Metrics, res.State
		verifyPlan = plan
		extra = fmt.Sprintf("timesteps=%d requeued=%d elapsed=%s", res.Timesteps, res.Requeued, res.Elapsed)
		if plan != nil && !plan.Empty() {
			extra += fmt.Sprintf(" faults=%d skipped=%d", res.FaultsApplied, res.FaultsSkipped)
		}
		if rec != nil {
			if err := writeFile(*traceFile, rec.WriteCSV); err != nil {
				return fmt.Errorf("trace: %w", err)
			}
		}
	case "maxmax":
		if *lose != "" || *faults != "" || *adaptive || *traceFile != "" {
			return fmt.Errorf("-lose/-faults/-adaptive/-trace apply to the SLRH variants only")
		}
		res, err := maxmax.Run(inst, maxmax.Config{Weights: w})
		if err != nil {
			return fmt.Errorf("run: %w", err)
		}
		metrics, state = res.Metrics, res.State
		extra = fmt.Sprintf("steps=%d elapsed=%s", res.Steps, res.Elapsed)
	default:
		return fmt.Errorf("unknown heuristic %q", *heuristic)
	}

	buf := &bytes.Buffer{}
	fmt.Fprintf(buf, "heuristic   %s (alpha=%.2f beta=%.2f gamma=%.2f)\n", *heuristic, w.Alpha, w.Beta, w.Gamma)
	fmt.Fprintf(buf, "scenario    |T|=%d case %s seed %d tau=%.0fs TSE=%.1f\n",
		*n, c, *seed, grid.CyclesToSeconds(inst.TauCycles), inst.Grid.TSE())
	fmt.Fprintf(buf, "mapped      %d/%d (complete=%v)\n", metrics.Mapped, *n, metrics.Complete)
	fmt.Fprintf(buf, "T100        %d\n", metrics.T100)
	fmt.Fprintf(buf, "AET         %.1fs (within tau: %v)\n", metrics.AETSeconds, metrics.MetTau)
	fmt.Fprintf(buf, "TEC         %.2f energy units\n", metrics.TEC)
	fmt.Fprintf(buf, "objective   %.4f\n", metrics.Objective)
	fmt.Fprintf(buf, "run         %s\n", extra)
	for j := 0; j < inst.Grid.M(); j++ {
		status := "alive"
		if !state.Alive(j) {
			status = fmt.Sprintf("lost at cycle %d", state.DeadAt(j))
		} else if d := state.Downtime(j); len(d) > 0 {
			status = fmt.Sprintf("alive, rejoined at cycle %d", d[len(d)-1].End)
		}
		fmt.Fprintf(buf, "machine %d   %-5s remaining %.2f/%.2f energy (%s)\n",
			j, inst.Grid.Machines[j].Class, state.Ledger.Remaining(j), inst.Grid.Machines[j].Battery, status)
	}

	if *gantt > 0 {
		fmt.Fprintln(buf)
		fmt.Fprint(buf, state.Gantt(*gantt))
	}
	if *chain {
		fmt.Fprintln(buf, "\ncritical chain (origin -> AET):")
		for _, link := range sim.CriticalChain(state) {
			line := fmt.Sprintf("  subtask %4d on machine %d  [%7.1fs, %7.1fs)  via %s",
				link.Subtask, link.Machine,
				grid.CyclesToSeconds(link.Start), grid.CyclesToSeconds(link.End), link.Via)
			if link.DataWaitCycles > 0 {
				line += fmt.Sprintf(" (+%.1fs data wait)", grid.CyclesToSeconds(link.DataWaitCycles))
			}
			fmt.Fprintln(buf, line)
		}
	}
	if *assignFile != "" {
		if err := writeFile(*assignFile, func(w io.Writer) error {
			return trace.WriteAssignmentsCSV(w, state)
		}); err != nil {
			return fmt.Errorf("assignments: %w", err)
		}
	}
	var verifyErr error
	if *verify {
		if violations := sim.VerifyPlan(state, verifyPlan); len(violations) > 0 {
			fmt.Fprintf(buf, "VERIFY      %d violations:\n", len(violations))
			for _, v := range violations {
				fmt.Fprintf(buf, "  %s\n", v)
			}
			verifyErr = fmt.Errorf("verification found %d violations", len(violations))
		} else {
			fmt.Fprintln(buf, "VERIFY      ok (independent replay found no violations)")
		}
	}
	if _, err := stdout.Write(buf.Bytes()); err != nil {
		return err
	}
	return verifyErr
}

// runJSON is the -json path: it routes the flags through the exact code
// the slrhd service runs (serve.Execute + serve.EncodeResult), so the
// CLI's bytes and the service's response bytes are one artifact.
func runJSON(stdout io.Writer, n int, seed uint64, caseName, heuristic string,
	alpha, beta float64, deltaT, horizon int64, adaptive bool, energyScale float64, lose, faults string) error {
	req := serve.Request{
		N:           n,
		Case:        caseName,
		Heuristic:   heuristic,
		Seed:        seed,
		Alpha:       alpha,
		Beta:        beta,
		DeltaT:      deltaT,
		Horizon:     horizon,
		Adaptive:    adaptive,
		EnergyScale: energyScale,
		Faults:      faults,
	}
	if lose != "" {
		events, err := parseEvents(lose)
		if err != nil {
			return err
		}
		for _, e := range events {
			req.Lose = append(req.Lose, serve.LossEvent{Machine: e.Machine, At: e.At})
		}
	}
	out, err := serve.Execute(req, 0)
	if err != nil {
		return err
	}
	buf := &bytes.Buffer{}
	if err := serve.EncodeResult(buf, out.Result); err != nil {
		return err
	}
	_, err = stdout.Write(buf.Bytes())
	return err
}

// rejectDefaultedZeros refuses, in -json mode, a flag set explicitly to
// a 0 that the service schema reads as "use the default": -n for every
// heuristic, and -deltat and -horizon for the SLRH variants (Max-Max has
// no clock, so the schema ignores them). Without it, -json would
// silently run the default where text mode runs (or rejects) the 0.
func rejectDefaultedZeros(fs *flag.FlagSet, heuristic string) error {
	defaults := map[string]int64{"n": serve.DefaultN}
	if strings.ToLower(strings.TrimSpace(heuristic)) != "maxmax" {
		defaults["deltat"] = core.DefaultDeltaT
		defaults["horizon"] = core.DefaultHorizon
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if def, ok := defaults[f.Name]; ok && err == nil && f.Value.String() == "0" {
			err = fmt.Errorf("-%s 0 cannot run with -json: the service schema reads 0 as the default (%d)", f.Name, def)
		}
	})
	return err
}

// parsePlan builds the run's fault plan from the -faults DSL and the
// -lose sugar; a run with neither gets a nil plan. Validation beyond
// syntax (duplicate losses, out-of-range ids, rejoin ordering) is left
// to the run itself, which knows the grid and workload sizes.
func parsePlan(faults, lose string) (*fault.Plan, error) {
	if faults == "" && lose == "" {
		return nil, nil
	}
	pl, err := fault.ParsePlan(faults)
	if err != nil {
		return nil, err
	}
	if lose != "" {
		events, err := parseEvents(lose)
		if err != nil {
			return nil, err
		}
		pl.Events = append(pl.Events, events...)
	}
	pl.Normalize()
	return pl, nil
}

// parseEvents parses the -lose spec: comma-separated machine@cycle
// pairs, e.g. "1@40000" or "0@10000,2@50000", into loss events.
func parseEvents(s string) ([]fault.Event, error) {
	var events []fault.Event
	for _, part := range strings.Split(s, ",") {
		bits := strings.Split(part, "@")
		if len(bits) != 2 {
			return nil, fmt.Errorf("bad event %q, want machine@cycle", part)
		}
		m, err := strconv.Atoi(bits[0])
		if err != nil {
			return nil, fmt.Errorf("bad machine in %q: %v", part, err)
		}
		at, err := strconv.ParseInt(bits[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad cycle in %q: %v", part, err)
		}
		events = append(events, fault.Event{Kind: fault.Lose, At: at, Machine: m})
	}
	return events, nil
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		//lint:errdrop the write error takes precedence; close is cleanup on an already-failed path
		f.Close()
		return err
	}
	return f.Close()
}
