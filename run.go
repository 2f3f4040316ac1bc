package adhocgrid

import (
	"fmt"

	"adhocgrid/internal/fault"
	"adhocgrid/internal/lrnn"
	"adhocgrid/internal/maxmax"
	"adhocgrid/internal/opt"
	"adhocgrid/internal/sched"
	"adhocgrid/internal/sim"
)

// MaxMaxResult reports a Max-Max run.
type MaxMaxResult = maxmax.Result

// RunMaxMax executes the static Max-Max baseline (§V) on an instance.
func RunMaxMax(inst *Instance, w Weights) (*MaxMaxResult, error) {
	return maxmax.Run(inst, maxmax.Config{Weights: w})
}

// LRNNResult reports a Lagrangian-relaxation static-mapper run.
type LRNNResult = lrnn.Result

// LRNNConfig parameterizes the Lagrangian-relaxation static mapper.
type LRNNConfig = lrnn.Config

// RunLRNN executes the Lagrangian-relaxation static mapper (extension,
// after [LuZ00]/[CaS03]) on an instance.
func RunLRNN(inst *Instance, w Weights) (*LRNNResult, error) {
	return lrnn.Run(inst, lrnn.DefaultConfig(w))
}

// Violation describes one broken schedule constraint found by Verify.
type Violation = sim.Violation

// Verify independently replays a schedule against the paper's resource
// model and returns every violation found (empty = valid). The verifier
// shares no booking logic with the heuristics.
func Verify(s *Schedule) []Violation { return sim.Verify(s) }

// VerifyComplete additionally requires a complete mapping within τ.
func VerifyComplete(s *Schedule) []Violation { return sim.VerifyComplete(s) }

// Fault-plan re-exports (internal/fault): deterministic fault injection
// for the SLRH clock — machine churn, transient subtask failures, and
// link-bandwidth degradation windows.
type (
	// FaultPlan is a deterministic sequence of fault events plus
	// link-degradation windows, attached to a run via Config.Faults.
	FaultPlan = fault.Plan
	// FaultEvent is one planned disturbance (loss, rejoin or failure).
	FaultEvent = fault.Event
	// FaultWindow degrades every link's bandwidth by Factor over
	// [Start, End) cycles.
	FaultWindow = fault.Window
	// FaultKind discriminates fault events.
	FaultKind = fault.Kind
)

// Fault event kinds.
const (
	// FaultLose removes a machine permanently (until a rejoin).
	FaultLose = fault.Lose
	// FaultRejoin returns a previously lost machine to service.
	FaultRejoin = fault.Rejoin
	// FaultFail aborts one subtask's in-flight execution attempt.
	FaultFail = fault.Fail
)

// ParseFaultPlan parses the fault DSL, e.g.
// "lose:1@40000,fail:t217@52000,slow:links*0.5@[60000,90000],rejoin:1@110000".
// The returned plan is normalized; attach it via Config.Faults.
func ParseFaultPlan(s string) (*FaultPlan, error) { return fault.ParsePlan(s) }

// VerifyPlan runs Verify and additionally cross-checks the schedule
// against a fault plan: nothing may run on a machine during its outages,
// planned failures must have aborted their attempts, and the plan's
// degradation windows must match the ones the schedule was built under.
// A nil plan is exactly Verify.
func VerifyPlan(s *Schedule, pl *FaultPlan) []Violation { return sim.VerifyPlan(s, pl) }

// SearchOptions controls OptimizeWeights; zero values take the paper's
// defaults (coarse 0.1, fine 0.02).
//
// FineStep < 0 disables the refinement stage entirely, running only the
// coarse grid. (A zero FineStep selects the 0.02 default, so a negative
// value is the explicit off switch.)
type SearchOptions struct {
	CoarseStep float64
	FineStep   float64 // > 0 sets the step; 0 = paper default; < 0 disables refinement
	FineRadius float64
	Workers    int // parallel evaluations; 0 = GOMAXPROCS
}

// SearchResult reports a completed weight search.
type SearchResult struct {
	Best    Weights
	Metrics Metrics
	// Found reports whether any weight setting yielded a feasible
	// (complete, within-τ) mapping.
	Found     bool
	Evaluated int
}

// HeuristicFunc evaluates one weight setting; see OptimizeWeights.
type HeuristicFunc func(w Weights) (Metrics, error)

// OptimizeWeights performs the paper's §VII two-stage (α, β) search —
// coarse 0.1 grid, then 0.02 refinement — maximizing T100 among weight
// settings whose mapping is complete and meets the deadline.
//
// The run callback is invoked concurrently; wrap any heuristic:
//
//	res, _ := adhocgrid.OptimizeWeights(func(w adhocgrid.Weights) (adhocgrid.Metrics, error) {
//	    r, err := adhocgrid.RunSLRH(inst, adhocgrid.SLRH1, w)
//	    if err != nil {
//	        return adhocgrid.Metrics{}, err
//	    }
//	    return r.Metrics, nil
//	}, adhocgrid.SearchOptions{})
func OptimizeWeights(run HeuristicFunc, o SearchOptions) (SearchResult, error) {
	if run == nil {
		return SearchResult{}, fmt.Errorf("adhocgrid: nil heuristic")
	}
	opts := opt.DefaultOptions()
	if o.CoarseStep > 0 {
		opts.CoarseStep = o.CoarseStep
	}
	if o.FineStep > 0 {
		opts.FineStep = o.FineStep
	} else if o.FineStep < 0 {
		// Explicit coarse-only search (opt.Options treats 0 as disabled,
		// but at this layer 0 means "default").
		opts.FineStep = 0
	}
	if o.FineRadius > 0 {
		opts.FineRadius = o.FineRadius
	}
	opts.Workers = o.Workers
	res, err := opt.Search(func(w sched.Weights) (sched.Metrics, error) { return run(w) }, opts)
	if err != nil {
		return SearchResult{}, err
	}
	return SearchResult{
		Best:      res.Best,
		Metrics:   res.Metrics,
		Found:     res.Found,
		Evaluated: res.Evaluated,
	}, nil
}
