package adhocgrid_test

import (
	"fmt"
	"testing"

	"adhocgrid"
)

func exampleInstance(t testing.TB, n int, seed uint64, c adhocgrid.Case) *adhocgrid.Instance {
	t.Helper()
	p := adhocgrid.DefaultWorkloadParams(n)
	p.EnergyScale = 1
	scn, err := adhocgrid.GenerateScenarioWith(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := scn.Instantiate(c)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestPublicAPIEndToEnd(t *testing.T) {
	inst := exampleInstance(t, 96, 1, adhocgrid.CaseA)
	res, err := adhocgrid.RunSLRH(inst, adhocgrid.SLRH1, adhocgrid.NewWeights(0.5, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Metrics.Complete {
		t.Fatalf("mapped %d/96", res.Metrics.Mapped)
	}
	if v := adhocgrid.Verify(res.State); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	if v := adhocgrid.VerifyComplete(res.State); len(v) != 0 {
		t.Fatalf("complete violations: %v", v)
	}
}

func TestPublicMaxMaxAndLRNN(t *testing.T) {
	inst := exampleInstance(t, 96, 2, adhocgrid.CaseB)
	mm, err := adhocgrid.RunMaxMax(inst, adhocgrid.NewWeights(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !mm.Metrics.Complete {
		t.Fatalf("maxmax mapped %d/96", mm.Metrics.Mapped)
	}
	lr, err := adhocgrid.RunLRNN(inst, adhocgrid.NewWeights(0.5, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	if !lr.Metrics.Complete {
		t.Fatalf("lrnn mapped %d/96", lr.Metrics.Mapped)
	}
}

func TestPublicUpperBound(t *testing.T) {
	inst := exampleInstance(t, 96, 3, adhocgrid.CaseC)
	b := adhocgrid.UpperBound(inst)
	if b.T100Bound <= 0 || b.T100Bound > 96 {
		t.Fatalf("bound = %d", b.T100Bound)
	}
}

func TestPublicOptimizeWeights(t *testing.T) {
	scn, err := adhocgrid.GenerateScenario(64, 5) // constrained: auto energy scale
	if err != nil {
		t.Fatal(err)
	}
	inst, err := scn.Instantiate(adhocgrid.CaseA)
	if err != nil {
		t.Fatal(err)
	}
	res, err := adhocgrid.OptimizeWeights(func(w adhocgrid.Weights) (adhocgrid.Metrics, error) {
		r, err := adhocgrid.RunSLRH(inst, adhocgrid.SLRH1, w)
		if err != nil {
			return adhocgrid.Metrics{}, err
		}
		return r.Metrics, nil
	}, adhocgrid.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("no feasible weights")
	}
	if res.Evaluated < 66 {
		t.Fatalf("evaluated %d points", res.Evaluated)
	}
}

// TestPublicOptimizeWeightsCoarseOnly pins the FineStep < 0 off switch: a
// negative FineStep must run the coarse grid alone, even when the best
// coarse point is feasible (which would otherwise trigger refinement).
func TestPublicOptimizeWeightsCoarseOnly(t *testing.T) {
	evals := 0
	res, err := adhocgrid.OptimizeWeights(func(w adhocgrid.Weights) (adhocgrid.Metrics, error) {
		evals++
		// Always feasible, so a refinement stage would add points.
		return adhocgrid.Metrics{Complete: true, MetTau: true, Mapped: 1, T100: 1}, nil
	}, adhocgrid.SearchOptions{FineStep: -1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The coarse 0.1 simplex grid α, β ∈ [0,1], α+β <= 1 has 66 points.
	const coarsePoints = 66
	if res.Evaluated != coarsePoints {
		t.Fatalf("evaluated %d points, want the %d coarse points alone", res.Evaluated, coarsePoints)
	}
	if evals != coarsePoints {
		t.Fatalf("heuristic invoked %d times, want %d", evals, coarsePoints)
	}
	if !res.Found {
		t.Fatal("feasible stub not found")
	}
}

func TestPublicMachineLossRun(t *testing.T) {
	inst := exampleInstance(t, 96, 7, adhocgrid.CaseA)
	cfg := adhocgrid.DefaultConfig(adhocgrid.SLRH1, adhocgrid.NewWeights(0.5, 0.3))
	cfg.Faults = &adhocgrid.FaultPlan{Events: []adhocgrid.FaultEvent{
		{Kind: adhocgrid.FaultLose, At: inst.TauCycles / 8, Machine: 1},
	}}
	cfg.Adaptive = adhocgrid.NewAdaptiveController(cfg.Weights)
	res, err := adhocgrid.RunSLRHConfig(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.State.Alive(1) {
		t.Fatal("machine 1 should be lost")
	}
	if v := adhocgrid.Verify(res.State); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

func ExampleRunSLRH() {
	scn, err := adhocgrid.GenerateScenario(128, 42)
	if err != nil {
		panic(err)
	}
	inst, err := scn.Instantiate(adhocgrid.CaseA)
	if err != nil {
		panic(err)
	}
	res, err := adhocgrid.RunSLRH(inst, adhocgrid.SLRH1, adhocgrid.NewWeights(0.5, 0.3))
	if err != nil {
		panic(err)
	}
	fmt.Printf("complete=%v within-tau=%v violations=%d\n",
		res.Metrics.Complete, res.Metrics.MetTau, len(adhocgrid.Verify(res.State)))
	// Output: complete=true within-tau=true violations=0
}
