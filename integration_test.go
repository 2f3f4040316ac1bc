package adhocgrid_test

import (
	"testing"

	"adhocgrid"
	"adhocgrid/internal/bound"
	"adhocgrid/internal/exp"
	"adhocgrid/internal/grid"
	"adhocgrid/internal/lrnn"
	"adhocgrid/internal/rng"
	"adhocgrid/internal/sched"
	"adhocgrid/internal/sim"
	"adhocgrid/internal/workload"
)

// TestIntegrationAllHeuristicsAllCases is the adversarial end-to-end
// sweep: every mapper in the repository (SLRH-1/2/3, Max-Max and LRNN),
// on several seeds and every grid configuration, must produce a schedule
// that (a) passes the record-based verifier, which also finds
// overlapping executions, sends and receives on a machine and any work
// past a machine loss, (b) never exceeds the §VI upper bound on T100,
// and (c) respects the τ guard.
func TestIntegrationAllHeuristicsAllCases(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep in -short mode")
	}
	type runnerFn func(inst *workload.Instance) (*sched.State, sched.Metrics, error)
	w := sched.NewWeights(0.5, 0.3)
	runners := map[string]runnerFn{
		"SLRH-1": func(inst *workload.Instance) (*sched.State, sched.Metrics, error) {
			m, _, err := exp.RunHeuristic(exp.HeurSLRH1, inst, w)
			if err != nil {
				return nil, sched.Metrics{}, err
			}
			// RunHeuristic discards the state; rerun through the facade
			// to keep it (deterministic, so metrics agree).
			r, err := adhocgrid.RunSLRH(inst, adhocgrid.SLRH1, w)
			if err != nil {
				return nil, sched.Metrics{}, err
			}
			if r.Metrics != m {
				t.Fatalf("facade and harness disagree: %+v vs %+v", r.Metrics, m)
			}
			return r.State, r.Metrics, nil
		},
		"SLRH-2": func(inst *workload.Instance) (*sched.State, sched.Metrics, error) {
			r, err := adhocgrid.RunSLRH(inst, adhocgrid.SLRH2, w)
			if err != nil {
				return nil, sched.Metrics{}, err
			}
			return r.State, r.Metrics, nil
		},
		"SLRH-3": func(inst *workload.Instance) (*sched.State, sched.Metrics, error) {
			r, err := adhocgrid.RunSLRH(inst, adhocgrid.SLRH3, w)
			if err != nil {
				return nil, sched.Metrics{}, err
			}
			return r.State, r.Metrics, nil
		},
		"Max-Max": func(inst *workload.Instance) (*sched.State, sched.Metrics, error) {
			r, err := adhocgrid.RunMaxMax(inst, sched.NewWeights(1, 0))
			if err != nil {
				return nil, sched.Metrics{}, err
			}
			return r.State, r.Metrics, nil
		},
		"LRNN": func(inst *workload.Instance) (*sched.State, sched.Metrics, error) {
			r, err := lrnn.Run(inst, lrnn.DefaultConfig(w))
			if err != nil {
				return nil, sched.Metrics{}, err
			}
			return r.State, r.Metrics, nil
		},
	}
	for seed := uint64(100); seed < 103; seed++ {
		scn, err := workload.Generate(workload.DefaultParams(96), rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range grid.AllCases {
			inst, err := scn.Instantiate(c)
			if err != nil {
				t.Fatal(err)
			}
			bnd := bound.UpperBound(inst).T100Bound
			for name, run := range runners {
				st, m, err := run(inst)
				if err != nil {
					t.Fatalf("seed %d case %v %s: %v", seed, c, name, err)
				}
				if v := sim.Verify(st); len(v) != 0 {
					t.Fatalf("seed %d case %v %s: verifier: %v", seed, c, name, v)
				}
				if m.T100 > bnd {
					t.Fatalf("seed %d case %v %s: T100 %d exceeds bound %d",
						seed, c, name, m.T100, bnd)
				}
				if !m.MetTau {
					t.Fatalf("seed %d case %v %s: AET %v exceeds tau (guard failed)",
						seed, c, name, m.AETSeconds)
				}
			}
		}
	}
}

// TestIntegrationSerializedScenarioReplays round-trips a scenario through
// JSON and checks the heuristic produces bit-identical metrics on the
// reloaded copy — the dataset-replay guarantee behind cmd/gendata.
func TestIntegrationSerializedScenarioReplays(t *testing.T) {
	scn, err := adhocgrid.GenerateScenario(96, 11)
	if err != nil {
		t.Fatal(err)
	}
	data, err := scn.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back adhocgrid.Scenario
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	w := adhocgrid.NewWeights(0.5, 0.3)
	instA, err := scn.Instantiate(adhocgrid.CaseB)
	if err != nil {
		t.Fatal(err)
	}
	instB, err := back.Instantiate(adhocgrid.CaseB)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := adhocgrid.RunSLRH(instA, adhocgrid.SLRH1, w)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := adhocgrid.RunSLRH(instB, adhocgrid.SLRH1, w)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Metrics != rb.Metrics {
		t.Fatalf("reloaded scenario diverged: %+v vs %+v", ra.Metrics, rb.Metrics)
	}
}
