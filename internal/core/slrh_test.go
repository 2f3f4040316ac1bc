package core

import (
	"math"
	"reflect"
	"testing"

	"adhocgrid/internal/fault"
	"adhocgrid/internal/grid"
	"adhocgrid/internal/rng"
	"adhocgrid/internal/sched"
	"adhocgrid/internal/sim"
	"adhocgrid/internal/workload"
)

func makeInstance(t testing.TB, n int, seed uint64, c grid.Case) *workload.Instance {
	t.Helper()
	p := workload.DefaultParams(n)
	p.EnergyScale = 1 // unconstrained energy: these tests exercise mechanics, not tension
	s, err := workload.Generate(p, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := s.Instantiate(c)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// lossPlan is a fault plan with one machine loss.
func lossPlan(at int64, machine int) *fault.Plan {
	return &fault.Plan{Events: []fault.Event{{Kind: fault.Lose, At: at, Machine: machine}}}
}

func TestVariantString(t *testing.T) {
	if SLRH1.String() != "SLRH-1" || SLRH2.String() != "SLRH-2" || SLRH3.String() != "SLRH-3" {
		t.Fatal("variant names wrong")
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(SLRH1, sched.NewWeights(0.5, 0.3))
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Variant = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero variant accepted")
	}
	bad = good
	bad.DeltaT = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero DeltaT accepted")
	}
	bad = good
	bad.Horizon = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative horizon accepted")
	}
	bad = good
	bad.Weights = sched.Weights{Alpha: 2}
	if err := bad.Validate(); err == nil {
		t.Error("bad weights accepted")
	}
}

func TestSLRH1CompletesAndVerifies(t *testing.T) {
	for _, c := range grid.AllCases {
		inst := makeInstance(t, 96, 42, c)
		res, err := Run(inst, DefaultConfig(SLRH1, sched.NewWeights(0.3, 0.1)))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Metrics.Complete {
			t.Fatalf("case %v: mapped %d/%d", c, res.Metrics.Mapped, inst.Scenario.N())
		}
		if !res.Metrics.MetTau {
			t.Fatalf("case %v: AET %v exceeds tau", c, res.Metrics.AETSeconds)
		}
		if v := sim.Verify(res.State); len(v) != 0 {
			t.Fatalf("case %v: schedule violations: %v", c, v)
		}
		if res.Metrics.T100 <= 0 {
			t.Fatalf("case %v: no primary versions mapped", c)
		}
		if res.Timesteps <= 0 || res.Elapsed <= 0 {
			t.Fatalf("case %v: bogus bookkeeping %+v", c, res)
		}
	}
}

func TestAllVariantsProduceValidSchedules(t *testing.T) {
	inst := makeInstance(t, 96, 7, grid.CaseA)
	for _, v := range []Variant{SLRH1, SLRH2, SLRH3} {
		res, err := Run(inst, DefaultConfig(v, sched.NewWeights(0.3, 0.1)))
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if viol := sim.Verify(res.State); len(viol) != 0 {
			t.Fatalf("%v: violations: %v", v, viol)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	inst := makeInstance(t, 96, 11, grid.CaseA)
	cfg := DefaultConfig(SLRH1, sched.NewWeights(0.4, 0.2))
	a, err := Run(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics.T100 != b.Metrics.T100 || a.Metrics.AETSeconds != b.Metrics.AETSeconds ||
		a.Metrics.TEC != b.Metrics.TEC {
		t.Fatalf("nondeterministic: %+v vs %+v", a.Metrics, b.Metrics)
	}
}

func TestAlphaIncreasesT100(t *testing.T) {
	// Raising the T100 reward weight must not reduce the number of
	// primaries on a comfortably provisioned instance.
	inst := makeInstance(t, 64, 13, grid.CaseA)
	lo, err := Run(inst, DefaultConfig(SLRH1, sched.NewWeights(0.02, 0.58)))
	if err != nil {
		t.Fatal(err)
	}
	hi, err := Run(inst, DefaultConfig(SLRH1, sched.NewWeights(0.7, 0.1)))
	if err != nil {
		t.Fatal(err)
	}
	if hi.Metrics.T100 < lo.Metrics.T100 {
		t.Fatalf("alpha=0.7 gave T100=%d < alpha=0.02's %d", hi.Metrics.T100, lo.Metrics.T100)
	}
}

func TestHorizonLimitsLookahead(t *testing.T) {
	// With a zero horizon only candidates startable immediately may be
	// mapped; the run must still make progress and stay valid.
	inst := makeInstance(t, 64, 17, grid.CaseA)
	cfg := DefaultConfig(SLRH1, sched.NewWeights(0.3, 0.1))
	cfg.Horizon = 0
	res, err := Run(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Mapped == 0 {
		t.Fatal("zero-horizon run mapped nothing")
	}
	if v := sim.Verify(res.State); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

// TestHorizonPastTauMatchesTau: no feasible plan starts past τ, so any
// horizon of at least τ admits every candidate, and H = MaxInt64 must
// map exactly what H = τ maps (the horizon test must not overflow).
func TestHorizonPastTauMatchesTau(t *testing.T) {
	inst := makeInstance(t, 64, 1, grid.CaseA)
	for _, v := range variants {
		cfg := DefaultConfig(v, sched.NewWeights(0.5, 0.3))
		cfg.Horizon = inst.TauCycles
		want, err := Run(inst, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantExport, wantSteps := want.State.Export(), want.Timesteps
		cfg.Horizon = math.MaxInt64
		got, err := Run(inst, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Timesteps != wantSteps || !reflect.DeepEqual(got.State.Export(), wantExport) {
			t.Fatalf("%v: H=MaxInt64 mapped %d (T100 %d) in %d timesteps; H=τ mapped %d (T100 %d) in %d",
				v, got.Metrics.Mapped, got.Metrics.T100, got.Timesteps,
				wantExport.Metrics.Mapped, wantExport.Metrics.T100, wantSteps)
		}
	}
}

func TestObserverInvoked(t *testing.T) {
	inst := makeInstance(t, 32, 19, grid.CaseA)
	cfg := DefaultConfig(SLRH1, sched.NewWeights(0.3, 0.1))
	calls := 0
	var lastNow int64 = -1
	cfg.Observer = func(now int64, st *sched.State) {
		calls++
		if now <= lastNow {
			t.Fatalf("observer clock not increasing: %d after %d", now, lastNow)
		}
		lastNow = now
	}
	res, err := Run(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if calls != res.Timesteps {
		t.Fatalf("observer called %d times, %d timesteps", calls, res.Timesteps)
	}
}

func TestMachineLossDuringRun(t *testing.T) {
	inst := makeInstance(t, 96, 23, grid.CaseA)
	cfg := DefaultConfig(SLRH1, sched.NewWeights(0.3, 0.1))
	// Lose a fast machine a quarter of the way into the deadline.
	lossAt := inst.TauCycles / 4
	cfg.Faults = lossPlan(lossAt, 1)
	res, err := Run(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.State.Alive(1) {
		t.Fatal("machine 1 still alive")
	}
	if v := sim.Verify(res.State); len(v) != 0 {
		t.Fatalf("violations after loss: %v", v)
	}
	// Nothing may be assigned to the dead machine after the loss cycle.
	for _, a := range res.State.Assignments {
		if a != nil && a.Machine == 1 && a.End > lossAt {
			t.Fatalf("subtask %d scheduled on dead machine past loss", a.Subtask)
		}
	}
	// The run should still have completed the mapping on three machines.
	if !res.Metrics.Complete {
		t.Fatalf("mapping incomplete after loss: %d/%d", res.Metrics.Mapped, inst.Scenario.N())
	}
}

func TestAdaptiveControllerSimplex(t *testing.T) {
	inst := makeInstance(t, 64, 29, grid.CaseA)
	base := sched.NewWeights(0.4, 0.2)
	ctrl := NewAdaptiveController(base)
	st := sched.NewState(inst, base)
	// At t=0 with no progress, the controller returns the base weights.
	w := ctrl.Update(st, 0)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w != base {
		t.Fatalf("controller at rest returned %+v, want base %+v", w, base)
	}
	// Deep behind schedule: alpha must drop but stay on the simplex.
	w = ctrl.Update(st, inst.TauCycles)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.Alpha >= base.Alpha {
		t.Fatalf("behind schedule but alpha did not drop: %+v", w)
	}
}

func TestAdaptiveRunCompletes(t *testing.T) {
	inst := makeInstance(t, 96, 31, grid.CaseA)
	cfg := DefaultConfig(SLRH1, sched.NewWeights(0.4, 0.2))
	cfg.Adaptive = NewAdaptiveController(cfg.Weights)
	res, err := Run(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Metrics.Complete {
		t.Fatalf("adaptive run incomplete: %d/%d", res.Metrics.Mapped, inst.Scenario.N())
	}
	if v := sim.Verify(res.State); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

func TestDeltaTOneWorks(t *testing.T) {
	inst := makeInstance(t, 48, 37, grid.CaseA)
	cfg := DefaultConfig(SLRH1, sched.NewWeights(0.3, 0.1))
	cfg.DeltaT = 1
	res, err := Run(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Metrics.Complete {
		t.Fatal("DeltaT=1 run incomplete")
	}
	if v := sim.Verify(res.State); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

func TestArrivalProcessRespected(t *testing.T) {
	p := workload.DefaultParams(64)
	p.EnergyScale = 1
	p.ArrivalRate = 0.05 // one subtask every ~20s: arrivals dominate the run
	s, err := workload.Generate(p, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := s.Instantiate(grid.CaseA)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(inst, DefaultConfig(SLRH1, sched.NewWeights(0.5, 0.3)))
	if err != nil {
		t.Fatal(err)
	}
	// No subtask may start executing before it arrived.
	for i, a := range res.State.Assignments {
		if a == nil {
			continue
		}
		if a.Start < inst.ArrivalCycle(i) {
			t.Fatalf("subtask %d starts at %d before its arrival %d", i, a.Start, inst.ArrivalCycle(i))
		}
	}
	if v := sim.Verify(res.State); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	// With arrivals spread over time the makespan must stretch past the
	// last arrival.
	last := int64(0)
	for i := 0; i < s.N(); i++ {
		if inst.ArrivalCycle(i) > last {
			last = inst.ArrivalCycle(i)
		}
	}
	if res.State.AETCycles < last {
		t.Fatalf("AET %d before last arrival %d", res.State.AETCycles, last)
	}
}

func TestArrivalsSlowMappingDown(t *testing.T) {
	base := workload.DefaultParams(64)
	base.EnergyScale = 1
	immediate, err := workload.Generate(base, rng.New(43))
	if err != nil {
		t.Fatal(err)
	}
	spread := base
	spread.ArrivalRate = 0.05
	delayed, err := workload.Generate(spread, rng.New(43))
	if err != nil {
		t.Fatal(err)
	}
	instI, _ := immediate.Instantiate(grid.CaseA)
	instD, _ := delayed.Instantiate(grid.CaseA)
	ri, err := Run(instI, DefaultConfig(SLRH1, sched.NewWeights(0.5, 0.3)))
	if err != nil {
		t.Fatal(err)
	}
	rd, err := Run(instD, DefaultConfig(SLRH1, sched.NewWeights(0.5, 0.3)))
	if err != nil {
		t.Fatal(err)
	}
	if rd.Metrics.AETSeconds <= ri.Metrics.AETSeconds {
		t.Fatalf("arrival-spread AET %v not above immediate %v",
			rd.Metrics.AETSeconds, ri.Metrics.AETSeconds)
	}
}

func TestSLRH2HogsFirstMachine(t *testing.T) {
	// SLRH-2's no-re-evaluation semantics let one machine absorb
	// assignments whose fresh start would be far outside the horizon, so
	// its load should skew toward the first machine compared to SLRH-1.
	inst := makeInstance(t, 128, 53, grid.CaseA)
	w := sched.NewWeights(0.5, 0.3)
	count := func(v Variant) (int, int) {
		res, err := Run(inst, DefaultConfig(v, w))
		if err != nil {
			t.Fatal(err)
		}
		first, total := 0, 0
		for _, a := range res.State.Assignments {
			if a == nil {
				continue
			}
			total++
			if a.Machine == 0 {
				first++
			}
		}
		return first, total
	}
	f1, t1 := count(SLRH1)
	f2, t2 := count(SLRH2)
	if t1 == 0 || t2 == 0 {
		t.Fatal("nothing mapped")
	}
	frac1 := float64(f1) / float64(t1)
	frac2 := float64(f2) / float64(t2)
	if frac2 <= frac1 {
		t.Fatalf("SLRH-2 machine-0 share %.2f not above SLRH-1's %.2f", frac2, frac1)
	}
}

func TestSLRH3MapsAsManyOrMorePerTimestep(t *testing.T) {
	// SLRH-3 rebuilds the pool after each assignment, so it needs no more
	// timesteps than SLRH-1 to finish the same mapping.
	inst := makeInstance(t, 96, 57, grid.CaseA)
	w := sched.NewWeights(0.5, 0.3)
	r1, err := Run(inst, DefaultConfig(SLRH1, w))
	if err != nil {
		t.Fatal(err)
	}
	r3, err := Run(inst, DefaultConfig(SLRH3, w))
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Metrics.Complete || !r3.Metrics.Complete {
		t.Skip("incomplete mapping at these weights")
	}
	if r3.Timesteps > r1.Timesteps {
		t.Fatalf("SLRH-3 used %d timesteps, SLRH-1 only %d", r3.Timesteps, r1.Timesteps)
	}
}

func TestEventAfterCompletionNeverFires(t *testing.T) {
	inst := makeInstance(t, 48, 61, grid.CaseA)
	cfg := DefaultConfig(SLRH1, sched.NewWeights(0.5, 0.3))
	// First learn when the run finishes, then schedule a loss well past it.
	base, err := Run(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = lossPlan(base.State.AETCycles+10_000, 0)
	res, err := Run(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.State.Alive(0) {
		t.Fatal("loss scheduled after completion still fired")
	}
	if res.Requeued != 0 {
		t.Fatalf("requeued %d", res.Requeued)
	}
	if res.Metrics != base.Metrics {
		t.Fatalf("future event changed the run: %+v vs %+v", res.Metrics, base.Metrics)
	}
}

func TestEventBetweenMappingAndExecutionFires(t *testing.T) {
	inst := makeInstance(t, 48, 61, grid.CaseA)
	cfg := DefaultConfig(SLRH1, sched.NewWeights(0.5, 0.3))
	base, err := Run(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A loss before the realized AET must fire even though the mapping
	// itself completed long before.
	cfg.Faults = lossPlan(base.State.AETCycles-1, 0)
	res, err := Run(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.State.Alive(0) {
		t.Fatal("loss before AET did not fire")
	}
	if v := sim.Verify(res.State); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}
