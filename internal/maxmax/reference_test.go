package maxmax

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"adhocgrid/internal/grid"
	"adhocgrid/internal/rng"
	"adhocgrid/internal/sched"
	"adhocgrid/internal/workload"
)

// referenceRun is the per-triplet Max-Max loop the cached Run replaces:
// every step prices every ready subtask × machine × version from
// scratch with PlanCandidate (whose version guard is the per-version
// feasibility test of §V) and commits the maximum under tieBreak. It is
// the oracle Run must reproduce exactly.
func referenceRun(inst *workload.Instance, w sched.Weights) (*Result, error) {
	st := sched.NewState(inst, w)
	res := &Result{State: st}
	var ready []int
	for !st.Done() {
		ready = st.ReadySet(ready)
		if len(ready) == 0 {
			break
		}
		var best sched.Plan
		bestScore := 0.0
		found := false
		for j := 0; j < inst.Grid.M(); j++ {
			for _, i := range ready {
				for _, v := range [2]workload.Version{workload.Primary, workload.Secondary} {
					plan, err := st.PlanCandidate(i, j, v, 0)
					if err != nil {
						continue
					}
					score := st.Hypothetical(&plan)
					if !found || score > bestScore ||
						(score == bestScore && tieBreak(plan, best)) {
						best, bestScore, found = plan, score, true
					}
				}
			}
		}
		if !found {
			break
		}
		if err := st.Commit(best); err != nil {
			return nil, fmt.Errorf("reference commit: %w", err)
		}
		res.Steps++
	}
	res.Metrics = st.Metrics()
	return res, nil
}

// referenceInstance generates one scenario; energyScale 0 is the
// automatic N/1024 battery scaling, 1 the unscaled Table 2 capacities.
func referenceInstance(t testing.TB, n int, seed uint64, c grid.Case, energyScale float64) *workload.Instance {
	t.Helper()
	p := workload.DefaultParams(n)
	p.EnergyScale = energyScale
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

// assertMatchesReference fails unless Run and referenceRun build the same
// schedule: assignments (transfers included), metrics and step count.
func assertMatchesReference(t testing.TB, inst *workload.Instance, w sched.Weights, label string) {
	t.Helper()
	got, err := Run(inst, Config{Weights: w})
	if err != nil {
		t.Fatalf("%s: Run: %v", label, err)
	}
	want, err := referenceRun(inst, w)
	if err != nil {
		t.Fatalf("%s: referenceRun: %v", label, err)
	}
	if got.Steps != want.Steps || got.Metrics != want.Metrics {
		t.Fatalf("%s: steps/metrics differ\nrun:       steps=%d %+v\nreference: steps=%d %+v",
			label, got.Steps, got.Metrics, want.Steps, want.Metrics)
	}
	if !reflect.DeepEqual(got.State.Assignments, want.State.Assignments) {
		for i := range want.State.Assignments {
			if !reflect.DeepEqual(got.State.Assignments[i], want.State.Assignments[i]) {
				t.Fatalf("%s: subtask %d assigned differently\nrun:       %+v\nreference: %+v",
					label, i, got.State.Assignments[i], want.State.Assignments[i])
			}
		}
	}
}

// TestMaxMaxMatchesReference proves the cached Run schedule-identical to
// the per-triplet loop over |T| × grid cases × weightings × battery
// scaling × seeds. The |T|=1024 rows dominate the cost and run in full
// mode only.
func TestMaxMaxMatchesReference(t *testing.T) {
	sizes := []int{16, 64, 96, 256, 1024}
	if testing.Short() {
		sizes = sizes[:4]
	}
	weights := []sched.Weights{
		sched.NewWeights(0.5, 0.3),
		sched.NewWeights(1, 0),
		sched.NewWeights(0.05, 0.9),
	}
	for _, n := range sizes {
		for _, c := range grid.AllCases {
			for _, es := range []float64{1, 0} {
				for seed := uint64(1); seed <= 4; seed++ {
					inst := referenceInstance(t, n, seed*7919+uint64(n), c, es)
					for _, w := range weights {
						label := fmt.Sprintf("n=%d/case%v/energy=%g/seed=%d/w=%v", n, c, es, seed, w)
						assertMatchesReference(t, inst, w, label)
					}
				}
			}
		}
	}
}

// FuzzMaxMaxVsReference drives the same comparison over fuzzer-chosen
// scenarios: seed, |T| ≤ 96, grid case, and weights (α, β) folded onto
// the simplex.
func FuzzMaxMaxVsReference(f *testing.F) {
	f.Add(uint64(1), uint8(16), uint8(0), 0.5, 0.3)
	f.Add(uint64(7), uint8(96), uint8(1), 1.0, 0.0)
	f.Add(uint64(42), uint8(64), uint8(2), 0.05, 0.9)
	f.Fuzz(func(t *testing.T, seed uint64, n, c uint8, alpha, beta float64) {
		size := 2 + int(n)%95
		w, ok := simplexWeights(alpha, beta)
		if !ok {
			t.Skip()
		}
		inst := referenceInstance(t, size, seed, grid.AllCases[int(c)%len(grid.AllCases)], 0)
		assertMatchesReference(t, inst, w, fmt.Sprintf("seed=%d n=%d case=%d w=%v", seed, size, c, w))
	})
}

// simplexWeights maps arbitrary (α, β) onto valid weights: magnitudes
// wrapped into [0, 1] and β clipped so that γ = 1−α−β stays non-negative.
// Non-finite inputs are rejected.
func simplexWeights(alpha, beta float64) (sched.Weights, bool) {
	wrap := func(x float64) (float64, bool) {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0, false
		}
		if x < 0 {
			x = -x
		}
		for x > 1 {
			x /= 2
		}
		return x, true
	}
	a, okA := wrap(alpha)
	b, okB := wrap(beta)
	if !okA || !okB {
		return sched.Weights{}, false
	}
	if a+b > 1 {
		b = 1 - a
	}
	w := sched.NewWeights(a, b)
	return w, w.Validate() == nil
}
