package adhocgrid_test

import (
	"fmt"

	"adhocgrid"
)

// ExampleUpperBound computes the §VI equivalent-computing-cycles bound
// for the three grid configurations of one scenario.
func ExampleUpperBound() {
	scn, err := adhocgrid.GenerateScenario(256, 9)
	if err != nil {
		panic(err)
	}
	for _, c := range adhocgrid.AllCases {
		inst, err := scn.Instantiate(c)
		if err != nil {
			panic(err)
		}
		b := adhocgrid.UpperBound(inst)
		fmt.Printf("case %s: bound %d (cycle-bound %v)\n", c, b.T100Bound, b.CycleBound)
	}
	// Output:
	// case A: bound 256 (cycle-bound false)
	// case B: bound 256 (cycle-bound false)
	// case C: bound 223 (cycle-bound true)
}

// ExampleOptimizeWeights runs the paper's two-stage weight search for the
// SLRH-1 heuristic on one scenario.
func ExampleOptimizeWeights() {
	scn, err := adhocgrid.GenerateScenario(96, 5)
	if err != nil {
		panic(err)
	}
	inst, err := scn.Instantiate(adhocgrid.CaseA)
	if err != nil {
		panic(err)
	}
	res, err := adhocgrid.OptimizeWeights(func(w adhocgrid.Weights) (adhocgrid.Metrics, error) {
		r, err := adhocgrid.RunSLRH(inst, adhocgrid.SLRH1, w)
		if err != nil {
			return adhocgrid.Metrics{}, err
		}
		return r.Metrics, nil
	}, adhocgrid.SearchOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("found=%v alpha=%.2f beta=%.2f T100=%d/96\n",
		res.Found, res.Best.Alpha, res.Best.Beta, res.Metrics.T100)
	// Output:
	// found=true alpha=0.70 beta=0.30 T100=76/96
}

// ExampleConfig_machineLoss injects a machine loss mid-run and lets the
// adaptive controller remap the stranded work.
func ExampleConfig_machineLoss() {
	scn, err := adhocgrid.GenerateScenario(96, 7)
	if err != nil {
		panic(err)
	}
	inst, err := scn.Instantiate(adhocgrid.CaseA)
	if err != nil {
		panic(err)
	}
	cfg := adhocgrid.DefaultConfig(adhocgrid.SLRH1, adhocgrid.NewWeights(0.5, 0.3))
	cfg.Faults = &adhocgrid.FaultPlan{Events: []adhocgrid.FaultEvent{
		{Kind: adhocgrid.FaultLose, At: inst.TauCycles / 8, Machine: 1},
	}}
	cfg.Adaptive = adhocgrid.NewAdaptiveController(cfg.Weights)
	res, err := adhocgrid.RunSLRHConfig(inst, cfg)
	if err != nil {
		panic(err)
	}
	fmt.Printf("machine 1 alive: %v, violations: %d\n",
		res.State.Alive(1), len(adhocgrid.Verify(res.State)))
	// Output:
	// machine 1 alive: false, violations: 0
}

// ExampleRunMaxMax compares the static baseline against the upper bound.
func ExampleRunMaxMax() {
	scn, err := adhocgrid.GenerateScenario(96, 3)
	if err != nil {
		panic(err)
	}
	inst, err := scn.Instantiate(adhocgrid.CaseA)
	if err != nil {
		panic(err)
	}
	res, err := adhocgrid.RunMaxMax(inst, adhocgrid.NewWeights(1, 0))
	if err != nil {
		panic(err)
	}
	fmt.Printf("mapped=%d violations=%d\n",
		res.Metrics.Mapped, len(adhocgrid.Verify(res.State)))
	// Output:
	// mapped=83 violations=0
}
