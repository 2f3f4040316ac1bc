// Differential tests for the per-run arena (internal/core/arena.go): the
// arena must be invisible in the results — every SLRH variant must
// produce a bit-for-bit identical schedule on a fresh arena (core.Run)
// and on every reuse of one arena, with fault plans and arrivals active.
// The steady-state allocation pin at the bottom is the zero-alloc
// property's unit-level gate (benchrunner -check holds the
// benchmark-level one). internal/core's TestRunMatchesReference checks
// the schedules themselves against the plainly written reference loop.
package adhocgrid_test

import (
	"reflect"
	"testing"

	"adhocgrid/internal/core"
	"adhocgrid/internal/exp"
	"adhocgrid/internal/fault"
	"adhocgrid/internal/grid"
	"adhocgrid/internal/rng"
	"adhocgrid/internal/sched"
	"adhocgrid/internal/workload"
)

// arenaRuns is how many consecutive runs each arena performs per
// configuration: the first grows the buffers, the rest prove reuse.
const arenaRuns = 3

// runExport executes one SLRH configuration and returns the exported
// schedule.
func runExport(t *testing.T, inst *workload.Instance, cfg core.Config) sched.Export {
	t.Helper()
	res, err := core.Run(inst, cfg)
	if err != nil {
		t.Fatalf("%v: %v", cfg.Variant, err)
	}
	return res.State.Export()
}

// assertArenaTransparent runs cfg on a fresh arena (plain Run), then
// arenaRuns times through one reused arena, and fails unless every
// schedule is identical to the plain run's export.
func assertArenaTransparent(t *testing.T, inst *workload.Instance, cfg core.Config, label string) {
	t.Helper()
	want := runExport(t, inst, cfg)
	a := core.NewArena()
	for run := 0; run < arenaRuns; run++ {
		res, err := core.RunArena(inst, cfg, a)
		if err != nil {
			t.Fatalf("%s: arena run %d: %v", label, run, err)
		}
		got := res.State.Export()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: arena run %d differs from plain Run\narena: mapped=%d T100=%d TEC=%g AET=%g\nplain: mapped=%d T100=%d TEC=%g AET=%g",
				label, run,
				got.Metrics.Mapped, got.Metrics.T100, got.Metrics.TEC, got.Metrics.AETSeconds,
				want.Metrics.Mapped, want.Metrics.T100, want.Metrics.TEC, want.Metrics.AETSeconds)
		}
	}
}

// TestArenaDifferentialSuite: SLRH-1/2/3 through RunArena — reused
// arenas included — produce schedules identical to plain Run on every
// grid case.
func TestArenaDifferentialSuite(t *testing.T) {
	env, err := exp.NewEnv(exp.Bench())
	if err != nil {
		t.Fatal(err)
	}
	w := sched.NewWeights(0.5, 0.3)
	for _, c := range grid.AllCases {
		inst := env.Instance(c, 0, 0)
		for _, v := range []core.Variant{core.SLRH1, core.SLRH2, core.SLRH3} {
			assertArenaTransparent(t, inst, core.DefaultConfig(v, w), v.String()+"/case"+c.String())
		}
	}
}

// TestArenaDifferentialFaultPlan repeats the sweep with the full fault
// surface active — a transient failure, a loss/rejoin churn pair, and a
// link-degradation window — so arena reuse is exercised across
// shrink-epoch bumps, requeues, and pricing-relevant windows.
func TestArenaDifferentialFaultPlan(t *testing.T) {
	env, err := exp.NewEnv(exp.Bench())
	if err != nil {
		t.Fatal(err)
	}
	inst := env.Instance(grid.CaseA, 0, 0)
	pl := fullFaultPlan(t, inst)
	w := sched.NewWeights(0.5, 0.3)
	for _, v := range []core.Variant{core.SLRH1, core.SLRH2, core.SLRH3} {
		cfg := core.DefaultConfig(v, w)
		cfg.Faults = pl
		assertArenaTransparent(t, inst, cfg, v.String()+"/faultplan")
	}
}

// fullFaultPlan is a transient failure, a loss/rejoin churn pair and a
// link-degradation window, timed as fractions of inst's horizon.
func fullFaultPlan(t *testing.T, inst *workload.Instance) *fault.Plan {
	t.Helper()
	spec := "fail:t7@" + itoa(inst.TauCycles/16) +
		",lose:1@" + itoa(inst.TauCycles/8) +
		",slow:links*0.5@[" + itoa(inst.TauCycles/6) + "," + itoa(inst.TauCycles) + "]" +
		",rejoin:1@" + itoa(inst.TauCycles/4)
	pl, err := fault.ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// assertFanOutIgnored fails unless cfg with the deprecated scoring
// fan-out fields set produces the schedule of cfg left at its defaults:
// scoring is serial, and those fields must stay inert.
func assertFanOutIgnored(t *testing.T, inst *workload.Instance, cfg core.Config, label string) {
	t.Helper()
	want := runExport(t, inst, cfg)
	for _, workers := range []int{-1, 2, 4} {
		c := cfg
		c.ScoreWorkers = workers
		c.PoolWorkers = workers
		if got := runExport(t, inst, c); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ScoreWorkers=PoolWorkers=%d changed the schedule", label, workers)
		}
	}
}

// TestParallelDifferentialSuite: setting the deprecated fan-out fields
// leaves SLRH-1/2/3 schedules unchanged on every grid case.
func TestParallelDifferentialSuite(t *testing.T) {
	env, err := exp.NewEnv(exp.Bench())
	if err != nil {
		t.Fatal(err)
	}
	w := sched.NewWeights(0.5, 0.3)
	for _, c := range grid.AllCases {
		inst := env.Instance(c, 0, 0)
		for _, v := range []core.Variant{core.SLRH1, core.SLRH2, core.SLRH3} {
			assertFanOutIgnored(t, inst, core.DefaultConfig(v, w), v.String()+"/case"+c.String())
		}
	}
}

// TestParallelDifferentialFaultPlan repeats the check with the full
// fault surface active.
func TestParallelDifferentialFaultPlan(t *testing.T) {
	env, err := exp.NewEnv(exp.Bench())
	if err != nil {
		t.Fatal(err)
	}
	inst := env.Instance(grid.CaseA, 0, 0)
	pl := fullFaultPlan(t, inst)
	w := sched.NewWeights(0.5, 0.3)
	for _, v := range []core.Variant{core.SLRH1, core.SLRH2, core.SLRH3} {
		cfg := core.DefaultConfig(v, w)
		cfg.Faults = pl
		assertFanOutIgnored(t, inst, cfg, v.String()+"/faultplan")
	}
}

// TestArenaDifferentialArrivals checks the arrival gating: a subtask
// released mid-run must enter the pools only once its arrival cycle
// passes, identically on fresh and reused arenas.
func TestArenaDifferentialArrivals(t *testing.T) {
	p := workload.DefaultParams(96)
	p.ArrivalRate = 0.01
	s, err := workload.Generate(p, rng.New(exp.DefaultSeed))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := s.Instantiate(grid.CaseA)
	if err != nil {
		t.Fatal(err)
	}
	w := sched.NewWeights(0.5, 0.3)
	for _, v := range []core.Variant{core.SLRH1, core.SLRH3} {
		assertArenaTransparent(t, inst, core.DefaultConfig(v, w), v.String()+"/arrivals")
	}
}

// TestArenaDifferentialDefaultScale runs one larger instance (|T|=256,
// the Default() experiment scale) through SLRH-1 to catch divergences
// that only appear once pools grow past the Bench() sizes.
func TestArenaDifferentialDefaultScale(t *testing.T) {
	s, err := workload.Generate(workload.DefaultParams(256), rng.New(exp.DefaultSeed))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := s.Instantiate(grid.CaseA)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(core.SLRH1, sched.NewWeights(0.5, 0.3))
	assertArenaTransparent(t, inst, cfg, "SLRH-1/n256")
}

// TestArenaReuseAcrossInstances re-targets one arena at instances of
// different sizes and grid cases in both directions (grow and shrink):
// the state and cache reset paths must leave no residue.
func TestArenaReuseAcrossInstances(t *testing.T) {
	w := sched.NewWeights(0.5, 0.3)
	cfg := core.DefaultConfig(core.SLRH1, w)
	a := core.NewArena()
	for _, round := range []struct {
		n int
		c grid.Case
	}{{48, grid.CaseA}, {96, grid.CaseB}, {32, grid.CaseC}, {96, grid.CaseB}, {48, grid.CaseA}} {
		s, err := workload.Generate(workload.DefaultParams(round.n), rng.New(exp.DefaultSeed))
		if err != nil {
			t.Fatal(err)
		}
		inst, err := s.Instantiate(round.c)
		if err != nil {
			t.Fatal(err)
		}
		want := runExport(t, inst, cfg)
		res, err := core.RunArena(inst, cfg, a)
		if err != nil {
			t.Fatalf("n=%d case %v: %v", round.n, round.c, err)
		}
		if got := res.State.Export(); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d case %v: arena schedule differs from plain Run", round.n, round.c)
		}
	}
}

// TestArenaSteadyStateAllocs pins the zero-alloc property at the unit
// level: after warm-up, a full SLRH run on a reused arena performs no
// steady-state heap allocations. benchrunner -check gates the same
// property on the recorded benchmarks.
func TestArenaSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	s, err := workload.Generate(workload.DefaultParams(96), rng.New(exp.DefaultSeed))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := s.Instantiate(grid.CaseA)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(core.SLRH1, sched.NewWeights(0.5, 0.3))
	t.Run("serial_cached", func(t *testing.T) {
		a := core.NewArena()
		op := func() {
			if _, err := core.RunArena(inst, cfg, a); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2; i++ { // reach the buffers' high-water marks
			op()
		}
		if avg := testing.AllocsPerRun(3, op); avg > 0 {
			t.Errorf("steady-state allocs/run = %g, want 0", avg)
		}
	})
}
