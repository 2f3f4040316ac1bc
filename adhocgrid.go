// Package adhocgrid is a library for resource management in ad hoc
// computing grids, reproducing Castain, Saylor and Siegel, "Application of
// Lagrangian Receding Horizon Techniques to Resource Management in Ad Hoc
// Grid Environments" (IPDPS 2004).
//
// An ad hoc grid is a set of battery-powered heterogeneous machines (fast
// notebooks, slow PDAs) with limited-bandwidth links. An application of
// |T| communicating subtasks — precedence given by a DAG, each subtask
// offering a full "primary" version and a cheap "secondary" version —
// must be mapped so as to maximize the number of primary versions (T100)
// within hard per-machine energy budgets and a global deadline τ.
//
// The package exposes:
//
//   - workload generation (Gamma-distributed ETC matrices, layered random
//     DAGs, per-edge data items) via GenerateScenario and GenerateSuite;
//   - the paper's contribution, the Simplified Lagrangian Receding
//     Horizon heuristic in three variants, via RunSLRH;
//   - the static Max-Max baseline via RunMaxMax and a Lagrangian-
//     relaxation static mapper via RunLRNN;
//   - the equivalent-computing-cycles upper bound via UpperBound;
//   - the paper's two-stage objective-weight search via OptimizeWeights;
//   - an independent schedule verifier via Verify;
//   - deterministic fault plans — machine loss and rejoin, transient
//     subtask failure, link degradation — via Config.Faults and
//     ParseFaultPlan, with plan-aware verification via VerifyPlan, and
//     on-the-fly multiplier adaptation (Config.Adaptive), the paper's
//     stated future work.
//
// Quick start:
//
//	scn, _ := adhocgrid.GenerateScenario(256, 1)
//	inst, _ := scn.Instantiate(adhocgrid.CaseA)
//	res, _ := adhocgrid.RunSLRH(inst, adhocgrid.SLRH1, adhocgrid.NewWeights(0.5, 0.3))
//	fmt.Println(res.Metrics.T100)
//
// All heuristics are deterministic for a given scenario and configuration.
// Scenario generation is reproducible from a seed. See cmd/experiments
// for regenerating every table and figure of the paper.
package adhocgrid

import (
	"adhocgrid/internal/bound"
	"adhocgrid/internal/core"
	"adhocgrid/internal/etc"
	"adhocgrid/internal/grid"
	"adhocgrid/internal/rng"
	"adhocgrid/internal/sched"
	"adhocgrid/internal/workload"
)

// Grid model re-exports.
type (
	// Grid is an ordered set of machines; machine 0 is the §VI reference.
	Grid = grid.Grid
	// Machine holds the Table 2 parameters B, C, E, BW.
	Machine = grid.Machine
	// Case identifies a Table 1 configuration.
	Case = grid.Case
)

// Table 1 configurations.
const (
	// CaseA is the baseline grid: 2 fast + 2 slow machines.
	CaseA = grid.CaseA
	// CaseB removes one slow machine.
	CaseB = grid.CaseB
	// CaseC removes one fast machine.
	CaseC = grid.CaseC
)

// AllCases lists the Table 1 configurations in paper order.
var AllCases = grid.AllCases

// Workload re-exports.
type (
	// Scenario is one experiment input: DAG + ETC matrix + data items.
	Scenario = workload.Scenario
	// Suite is a cross product of ETC matrices and DAGs.
	Suite = workload.Suite
	// Instance is a scenario instantiated for one grid configuration.
	Instance = workload.Instance
	// WorkloadParams controls scenario generation.
	WorkloadParams = workload.Params
	// Version selects the primary or secondary implementation of a subtask.
	Version = workload.Version
	// ETCMatrix is an estimated-time-to-compute matrix.
	ETCMatrix = etc.Matrix
)

// Subtask versions.
const (
	// Primary is the full version of a subtask.
	Primary = workload.Primary
	// Secondary uses 10% of the primary's time, energy and output data.
	Secondary = workload.Secondary
)

// Scheduling re-exports.
type (
	// Weights are the Lagrangian multipliers (α, β, γ) of the objective.
	Weights = sched.Weights
	// Metrics summarizes a schedule: T100, TEC, AET, feasibility.
	Metrics = sched.Metrics
	// Schedule is the mutable schedule state produced by the heuristics.
	Schedule = sched.State
	// Assignment records one mapped subtask/version pair.
	Assignment = sched.Assignment
	// Transfer records one scheduled inter-machine communication.
	Transfer = sched.Transfer
)

// NewWeights builds Weights with γ = 1−α−β, the paper's convention.
func NewWeights(alpha, beta float64) Weights { return sched.NewWeights(alpha, beta) }

// SLRH re-exports.
type (
	// SLRHVariant selects SLRH-1, SLRH-2 or SLRH-3.
	SLRHVariant = core.Variant
	// Config parameterizes an SLRH run: the paper's variant, weights, ΔT
	// and horizon, plus adaptation, a per-timestep observer and a fault
	// plan (Config.Faults).
	Config = core.Config
	// AdaptiveController adjusts the multipliers on the fly (extension).
	AdaptiveController = core.AdaptiveController
	// SLRHResult reports an SLRH run.
	SLRHResult = core.Result
)

// SLRH variants (§V).
const (
	// SLRH1 maps at most one subtask per machine per timestep.
	SLRH1 = core.SLRH1
	// SLRH2 drains the pool built at the start of the machine's turn.
	SLRH2 = core.SLRH2
	// SLRH3 rebuilds the pool after every assignment.
	SLRH3 = core.SLRH3
)

// Paper defaults for the SLRH clock (§VII): ΔT = 10 cycles, H = 100
// cycles, at 0.1 simulated seconds per cycle.
const (
	DefaultDeltaT  = core.DefaultDeltaT
	DefaultHorizon = core.DefaultHorizon
	CycleSeconds   = grid.CycleSeconds
)

// GenerateScenario builds a reproducible n-subtask scenario with the
// paper-calibrated defaults (ensemble mean ETC 131 s, fast ≈ 10x slow,
// deadline and batteries scaled by n/1024).
func GenerateScenario(n int, seed uint64) (*Scenario, error) {
	return workload.Generate(workload.DefaultParams(n), rng.New(seed))
}

// GenerateScenarioWith builds a scenario from explicit parameters.
func GenerateScenarioWith(p WorkloadParams, seed uint64) (*Scenario, error) {
	return workload.Generate(p, rng.New(seed))
}

// GenerateSuite builds the nETC x nDAG scenario suite the paper's
// experiments sweep (10 x 10 at paper scale).
func GenerateSuite(n, nETC, nDAG int, seed uint64) (*Suite, error) {
	return workload.GenerateSuite(workload.DefaultParams(n), nETC, nDAG, rng.New(seed))
}

// DefaultWorkloadParams returns the paper-calibrated generation
// parameters for an n-subtask application, ready for customization.
func DefaultWorkloadParams(n int) WorkloadParams { return workload.DefaultParams(n) }

// RunSLRH executes an SLRH variant with the paper's baseline clock
// parameters (ΔT = 10 cycles, H = 100 cycles).
func RunSLRH(inst *Instance, v SLRHVariant, w Weights) (*SLRHResult, error) {
	return core.Run(inst, core.DefaultConfig(v, w))
}

// RunSLRHConfig executes an SLRH variant with full control over the
// clock, horizon, adaptation and fault plan.
func RunSLRHConfig(inst *Instance, cfg Config) (*SLRHResult, error) {
	return core.Run(inst, cfg)
}

// DefaultConfig returns the paper's baseline SLRH configuration for a
// variant, ready for customization.
func DefaultConfig(v SLRHVariant, w Weights) Config { return core.DefaultConfig(v, w) }

// NewAdaptiveController returns the on-the-fly multiplier controller
// (extension; see DESIGN.md §8) around base weights.
func NewAdaptiveController(base Weights) *AdaptiveController {
	return core.NewAdaptiveController(base)
}

// BoundResult reports an upper-bound computation (§VI).
type BoundResult = bound.Result

// UpperBound computes the equivalent-computing-cycles upper bound on T100
// for an instance.
func UpperBound(inst *Instance) BoundResult { return bound.UpperBound(inst) }
