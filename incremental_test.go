// Differential tests for the incremental scheduler state: the candidate
// plan cache (internal/core/plancache.go) must be invisible in the results
// — every SLRH variant must produce a bit-for-bit identical schedule with
// the cache enabled and disabled, across the whole Bench() suite, under
// machine loss, fault plans and Poisson arrivals.
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

// assertCacheTransparent runs cfg with and without the plan cache and
// fails unless the schedules are deeply equal.
func assertCacheTransparent(t *testing.T, inst *workload.Instance, cfg core.Config, label string) {
	t.Helper()
	cached := cfg
	cached.DisablePlanCache = false
	uncached := cfg
	uncached.DisablePlanCache = true
	got, want := runExport(t, inst, cached), runExport(t, inst, uncached)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: cached and uncached schedules differ\ncached:   mapped=%d T100=%d TEC=%g AET=%g\nuncached: mapped=%d T100=%d TEC=%g AET=%g",
			label,
			got.Metrics.Mapped, got.Metrics.T100, got.Metrics.TEC, got.Metrics.AETSeconds,
			want.Metrics.Mapped, want.Metrics.T100, want.Metrics.TEC, want.Metrics.AETSeconds)
	}
}

// TestPlanCacheDifferentialSuite proves the tentpole's acceptance
// criterion: SLRH-1/2/3 with caching on and off produce identical
// sched.Export schedules on every (case, scenario) instance of the
// Bench() suite.
func TestPlanCacheDifferentialSuite(t *testing.T) {
	env, err := exp.NewEnv(exp.Bench())
	if err != nil {
		t.Fatal(err)
	}
	w := sched.NewWeights(0.5, 0.3)
	for _, c := range grid.AllCases {
		for si, inst := range env.Instances(c) {
			for _, v := range []core.Variant{core.SLRH1, core.SLRH2, core.SLRH3} {
				cfg := core.DefaultConfig(v, w)
				label := v.String() + "/case" + c.String() + "/scenario" + itoa(int64(si))
				assertCacheTransparent(t, inst, cfg, label)
			}
		}
	}
}

// TestPlanCacheDifferentialMachineLoss exercises the LoseMachine
// invalidation path: unwound assignments and the dead machine must dirty
// every cache entry whose pricing they influenced.
func TestPlanCacheDifferentialMachineLoss(t *testing.T) {
	env, err := exp.NewEnv(exp.Bench())
	if err != nil {
		t.Fatal(err)
	}
	inst := env.Instance(grid.CaseA, 0, 0)
	w := sched.NewWeights(0.5, 0.3)
	for _, v := range []core.Variant{core.SLRH1, core.SLRH3} {
		cfg := core.DefaultConfig(v, w)
		cfg.Events = []core.Event{
			{At: inst.TauCycles / 8, Machine: 1},
			{At: inst.TauCycles / 3, Machine: 2},
		}
		assertCacheTransparent(t, inst, cfg, v.String()+"/loss")
	}
}

// TestPlanCacheDifferentialFaultPlan exercises the full fault-plan
// invalidation surface at once: a transient failure, a loss-rejoin churn
// pair, and a link-degradation window all dirty cache entries (FailSubtask
// and RejoinMachine bump the shrink epoch; the window changes pricing
// itself), so cached and uncached runs must still coincide bit for bit.
func TestPlanCacheDifferentialFaultPlan(t *testing.T) {
	env, err := exp.NewEnv(exp.Bench())
	if err != nil {
		t.Fatal(err)
	}
	inst := env.Instance(grid.CaseA, 0, 0)
	w := sched.NewWeights(0.5, 0.3)
	spec := "fail:t7@" + itoa(inst.TauCycles/16) +
		",lose:1@" + itoa(inst.TauCycles/8) +
		",slow:links*0.5@[" + itoa(inst.TauCycles/6) + "," + itoa(inst.TauCycles) + "]" +
		",rejoin:1@" + itoa(inst.TauCycles/4)
	pl, err := fault.ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []core.Variant{core.SLRH1, core.SLRH2, core.SLRH3} {
		cfg := core.DefaultConfig(v, w)
		cfg.Faults = pl
		assertCacheTransparent(t, inst, cfg, v.String()+"/faultplan")
	}
}

// TestPlanCacheDifferentialArrivals exercises the arrival gating: a
// subtask released mid-run enters the pool only once its arrival cycle
// passes, with or without the cache.
func TestPlanCacheDifferentialArrivals(t *testing.T) {
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
	for _, v := range []core.Variant{core.SLRH1, core.SLRH2, core.SLRH3} {
		assertCacheTransparent(t, inst, core.DefaultConfig(v, w), v.String()+"/arrivals")
	}
}
