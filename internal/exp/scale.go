// Package exp is the experiment harness: one driver per table and figure
// of the paper's evaluation (§VI–VII), producing the same rows and series
// the paper reports. Every driver runs at a configurable Scale; Full()
// reproduces the paper's exact workload sizes, Default() a calibrated
// reduction for interactive use, Bench() a small configuration for
// testing.B benches. See DESIGN.md §3 for the experiment index and §6 for
// the scale model.
package exp

import (
	"fmt"
	"sync"
	"time"

	"adhocgrid/internal/grid"
	"adhocgrid/internal/par"
	"adhocgrid/internal/rng"
	"adhocgrid/internal/sched"
	"adhocgrid/internal/workload"
)

// Scale fixes the workload sizes and search resolution of an experiment
// run.
type Scale struct {
	Name       string
	N          int     // subtasks per application (paper: 1024)
	NumETC     int     // ETC matrices in the suite (paper: 10)
	NumDAG     int     // DAGs in the suite (paper: 10)
	CoarseStep float64 // weight-search coarse grid step (paper: 0.1)
	FineStep   float64 // weight-search refinement step (paper: 0.02); 0 disables
	FineRadius float64 // refinement window half-width
	Seed       uint64  // master seed for all generated data
	Workers    int     // parallel workers; 0 = GOMAXPROCS
}

// DefaultSeed is the master seed used by the shipped experiment results.
const DefaultSeed = 20040426 // IPDPS 2004, April 26

// Full returns the paper-scale configuration: |T|=1024, a 10x10 ETC/DAG
// suite (100 scenarios), and the paper's two-stage weight search.
func Full() Scale {
	return Scale{Name: "full", N: 1024, NumETC: 10, NumDAG: 10,
		CoarseStep: 0.1, FineStep: 0.02, FineRadius: 0.1, Seed: DefaultSeed}
}

// Default returns the reduced configuration used for the shipped
// EXPERIMENTS.md numbers: |T|=256 with a 3x3 suite and the full two-stage
// search. Deadline and batteries scale with |T| (DESIGN.md §6), so the
// paper's constraint tension is preserved.
func Default() Scale {
	return Scale{Name: "default", N: 256, NumETC: 3, NumDAG: 3,
		CoarseStep: 0.1, FineStep: 0.02, FineRadius: 0.1, Seed: DefaultSeed}
}

// Bench returns the small configuration used by the testing.B benches:
// |T|=96 with a 1x2 suite and a coarse-only search.
func Bench() Scale {
	return Scale{Name: "bench", N: 96, NumETC: 1, NumDAG: 2,
		CoarseStep: 0.1, Seed: DefaultSeed}
}

// Validate checks the scale.
func (s Scale) Validate() error {
	if s.N <= 0 || s.NumETC <= 0 || s.NumDAG <= 0 {
		return fmt.Errorf("exp: scale %q has non-positive dimensions", s.Name)
	}
	if s.CoarseStep <= 0 {
		return fmt.Errorf("exp: scale %q has non-positive coarse step", s.Name)
	}
	return nil
}

// Scenarios returns the number of ETC x DAG combinations.
func (s Scale) Scenarios() int { return s.NumETC * s.NumDAG }

// Env is a generated experiment environment: the workload suite plus the
// instantiated (case, scenario) instances, shared read-only by all
// drivers, and a cache of per-heuristic weight optima.
type Env struct {
	Scale Scale
	Suite *workload.Suite

	// instances[case][etc*NumDAG+dag]
	instances map[grid.Case][]*workload.Instance

	mu       sync.Mutex
	optima   map[optKey][]Optimum
	inflight map[optKey]chan struct{}

	// runHeuristic is RunHeuristic unless a test substitutes it to observe
	// or count invocations.
	runHeuristic func(h Heuristic, inst *workload.Instance, w sched.Weights) (sched.Metrics, time.Duration, error)
}

// NewEnv generates the workload suite for a scale and instantiates every
// (case, scenario) pair.
func NewEnv(sc Scale) (*Env, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	suite, err := workload.GenerateSuite(workload.DefaultParams(sc.N), sc.NumETC, sc.NumDAG, rng.New(sc.Seed))
	if err != nil {
		return nil, err
	}
	env := &Env{
		Scale:        sc,
		Suite:        suite,
		instances:    make(map[grid.Case][]*workload.Instance, 3),
		optima:       make(map[optKey][]Optimum),
		inflight:     make(map[optKey]chan struct{}),
		runHeuristic: RunHeuristic,
	}
	for _, c := range grid.AllCases {
		insts := make([]*workload.Instance, 0, sc.Scenarios())
		for e := 0; e < sc.NumETC; e++ {
			for d := 0; d < sc.NumDAG; d++ {
				scn, err := suite.Scenario(e, d)
				if err != nil {
					return nil, err
				}
				inst, err := scn.Instantiate(c)
				if err != nil {
					return nil, err
				}
				insts = append(insts, inst)
			}
		}
		env.instances[c] = insts
	}
	return env, nil
}

// Instance returns the instance for (case, etc index, dag index).
func (e *Env) Instance(c grid.Case, etcIdx, dagIdx int) *workload.Instance {
	return e.instances[c][etcIdx*e.Scale.NumDAG+dagIdx]
}

// Instances returns all instances of a case in (etc-major, dag-minor)
// scenario order.
func (e *Env) Instances(c grid.Case) []*workload.Instance {
	return e.instances[c]
}

// parMap applies fn to every index in [0, n) using the environment's
// worker budget (par.Map). fn must write only to its own index's
// output.
func (e *Env) parMap(n int, fn func(k int)) {
	par.Map(par.Workers(e.Scale.Workers), n, fn)
}
