package opt

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"adhocgrid/internal/core"
	"adhocgrid/internal/grid"
	"adhocgrid/internal/rng"
	"adhocgrid/internal/sched"
	"adhocgrid/internal/workload"
)

func TestGridPoints(t *testing.T) {
	pts := GridPoints(0.1)
	// Triangular grid: sum_{a=0..10} (11-a) = 66 points.
	if len(pts) != 66 {
		t.Fatalf("grid has %d points, want 66", len(pts))
	}
	for _, w := range pts {
		if err := w.Validate(); err != nil {
			t.Fatalf("invalid grid point %+v: %v", w, err)
		}
	}
	if GridPoints(0) != nil {
		t.Fatal("zero step should return nil")
	}
}

func TestWindowPointsClipped(t *testing.T) {
	pts := windowPoints(sched.NewWeights(0, 0), 0.02, 0.1)
	for _, w := range pts {
		if w.Alpha < 0 || w.Beta < 0 || w.Alpha+w.Beta > 1+1e-9 {
			t.Fatalf("window point out of simplex: %+v", w)
		}
	}
	if len(pts) == 0 {
		t.Fatal("empty window")
	}
}

// syntheticRunner has a known optimum: feasible iff beta >= 0.3, and T100
// peaks at alpha = 0.42 (quantized by the evaluation grid).
func syntheticRunner(w sched.Weights) (sched.Metrics, error) {
	feasible := w.Beta >= 0.3-1e-9
	t100 := int(1000 - 1000*math.Abs(w.Alpha-0.42))
	return sched.Metrics{
		Mapped:     100,
		T100:       t100,
		TEC:        w.Beta, // prefer smaller beta among T100 ties
		AETSeconds: 1,
		Complete:   feasible,
		MetTau:     feasible,
	}, nil
}

func TestSearchFindsSyntheticOptimum(t *testing.T) {
	res, err := Search(syntheticRunner, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("no feasible point found")
	}
	// Fine grid reaches alpha = 0.42 exactly (0.4 ± k*0.02).
	if math.Abs(res.Best.Alpha-0.42) > 1e-9 {
		t.Fatalf("best alpha = %v, want 0.42", res.Best.Alpha)
	}
	if res.Best.Beta < 0.3-1e-9 {
		t.Fatalf("best beta = %v violates feasibility boundary", res.Best.Beta)
	}
	if res.Evaluated <= 66 {
		t.Fatalf("refinement did not run: %d evaluations", res.Evaluated)
	}
}

func TestSearchDeterministicUnderParallelism(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 8
	a, err := Search(syntheticRunner, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 1
	b, err := Search(syntheticRunner, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Best != b.Best || a.Metrics.T100 != b.Metrics.T100 {
		t.Fatalf("parallel result %+v differs from serial %+v", a.Best, b.Best)
	}
}

func TestSearchNoFeasiblePoint(t *testing.T) {
	run := func(w sched.Weights) (sched.Metrics, error) {
		return sched.Metrics{Complete: false}, nil
	}
	res, err := Search(run, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("found=true with no feasible point")
	}
	// No refinement around an infeasible center.
	if res.Evaluated != 66 {
		t.Fatalf("evaluated %d, want 66 (coarse only)", res.Evaluated)
	}
}

func TestSearchRunnerErrorsTolerated(t *testing.T) {
	var calls int32
	run := func(w sched.Weights) (sched.Metrics, error) {
		atomic.AddInt32(&calls, 1)
		if w.Alpha > 0.5 {
			return sched.Metrics{}, errors.New("boom")
		}
		return sched.Metrics{Complete: true, MetTau: true, T100: int(100 * w.Alpha)}, nil
	}
	res, err := Search(run, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("feasible points existed")
	}
	if res.Best.Alpha > 0.5 {
		t.Fatalf("best point %v came from erroring region", res.Best)
	}
}

func TestSearchRejectsBadInput(t *testing.T) {
	if _, err := Search(nil, DefaultOptions()); err == nil {
		t.Fatal("nil runner accepted")
	}
	if _, err := Search(syntheticRunner, Options{CoarseStep: 0}); err == nil {
		t.Fatal("zero step accepted")
	}
}

func TestSearchOnRealSLRH(t *testing.T) {
	// End-to-end: the sweep must find weights under which SLRH-1 fully
	// maps a small constrained workload.
	p := workload.DefaultParams(64)
	s, err := workload.Generate(p, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := s.Instantiate(grid.CaseA)
	if err != nil {
		t.Fatal(err)
	}
	run := func(w sched.Weights) (sched.Metrics, error) {
		res, err := core.Run(inst, core.DefaultConfig(core.SLRH1, w))
		if err != nil {
			return sched.Metrics{}, err
		}
		return res.Metrics, nil
	}
	opts := DefaultOptions()
	opts.FineStep = 0 // coarse only: keep the test fast
	res, err := Search(run, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("no feasible weights found for SLRH-1 on a 64-subtask workload")
	}
	if res.Metrics.T100 <= 0 {
		t.Fatal("optimum maps no primaries")
	}
}
