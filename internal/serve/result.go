package serve

import (
	"encoding/json"
	"fmt"
	"io"

	"adhocgrid/internal/core"
	"adhocgrid/internal/fault"
	"adhocgrid/internal/grid"
	"adhocgrid/internal/maxmax"
	"adhocgrid/internal/rng"
	"adhocgrid/internal/sched"
	"adhocgrid/internal/sim"
	"adhocgrid/internal/trace"
	"adhocgrid/internal/workload"
)

// WeightsReport echoes the resolved objective weights.
type WeightsReport struct {
	Alpha float64 `json:"alpha"`
	Beta  float64 `json:"beta"`
	Gamma float64 `json:"gamma"`
}

// MetricsReport is the schedule-quality section of a result.
type MetricsReport struct {
	Mapped     int     `json:"mapped"`
	T100       int     `json:"t100"`
	TEC        float64 `json:"tec"`
	AETSeconds float64 `json:"aet_seconds"`
	Objective  float64 `json:"objective"`
	Complete   bool    `json:"complete"`
	MetTau     bool    `json:"met_tau"`
	Feasible   bool    `json:"feasible"`
}

// CycleWindow is a half-open cycle interval [start, end).
type CycleWindow struct {
	Start int64 `json:"start"`
	End   int64 `json:"end"`
}

// MachineReport is the final per-machine account.
type MachineReport struct {
	ID        int     `json:"id"`
	Class     string  `json:"class"`
	Battery   float64 `json:"battery"`
	Remaining float64 `json:"remaining"`
	Alive     bool    `json:"alive"`
	DeadAt    int64   `json:"dead_at,omitempty"`
	// Downtime lists closed loss-to-rejoin outage windows, oldest first.
	Downtime []CycleWindow `json:"downtime,omitempty"`
}

// Result is the response body of POST /v1/map and, byte for byte, the
// output of `slrhsim -json`. It deliberately carries no wall-clock
// values (no elapsed time, no timestamps): the body must be a pure
// function of the request so cached responses are indistinguishable
// from recomputation. Wall time is reported out of band, via /metrics.
type Result struct {
	// Request is the canonical form of the request that produced this
	// result.
	Request    Request       `json:"request"`
	Weights    WeightsReport `json:"weights"`
	TauSeconds float64       `json:"tau_seconds"`
	TSE        float64       `json:"tse"`
	Metrics    MetricsReport `json:"metrics"`
	Steps      int           `json:"steps"`              // heuristic activations (SLRH) or assignments (maxmax)
	Requeued   int           `json:"requeued,omitempty"` // subtasks re-mapped after losses and failures
	// FaultsApplied / FaultsSkipped count fault-plan events that fired and
	// changed the run vs fail events that found nothing in flight.
	FaultsApplied int             `json:"faults_applied,omitempty"`
	FaultsSkipped int             `json:"faults_skipped,omitempty"`
	Machines      []MachineReport `json:"machines"`
	VerifyOK      bool            `json:"verify_ok"`
	Violations    []string        `json:"violations,omitempty"`
}

// Outcome bundles a run's serializable result with its side products:
// the captured trace document (nil unless the request asked for one)
// and the heuristic's wall time, which feeds the latency histograms but
// never the response body.
type Outcome struct {
	Result  *Result
	Trace   *trace.Document
	Elapsed float64 // heuristic wall time, seconds
}

// Execute runs one request to completion on a fresh arena. The request
// is canonicalized and validated (with the given problem-size cap)
// first; every error is a client error except workload-generation
// failures, which Execute wraps as internal.
func Execute(req Request, maxN int) (*Outcome, error) {
	return ExecuteArena(req, maxN, 0, nil)
}

// ExecuteArena is Execute backed by an arena pool: SLRH runs borrow a
// core.Arena for the duration of the call, so a server in steady state
// schedules without rebuilding runner or state storage. The arena is
// released before returning — everything the Outcome carries is copied
// out of the arena-owned state first — and the response bytes are
// identical with and without a pool (the arena is result-transparent;
// the parity tests pin it). A nil ap runs on a fresh arena. Scoring is
// serial (DESIGN.md §14), so scoreWorkers is ignored.
func ExecuteArena(req Request, maxN int,
	scoreWorkers int, // Deprecated: ignored; kept only because bench/ compiles against it.
	ap *core.ArenaPool) (*Outcome, error) {
	req = req.Canonical()
	if err := req.Validate(maxN); err != nil {
		return nil, &RequestError{Err: err}
	}
	c, err := req.gridCase()
	if err != nil {
		return nil, &RequestError{Err: err}
	}
	params := workload.DefaultParams(req.N)
	params.EnergyScale = req.EnergyScale
	scn, err := workload.Generate(params, rng.New(req.Seed))
	if err != nil {
		return nil, fmt.Errorf("generate workload: %w", err)
	}
	inst, err := scn.Instantiate(c)
	if err != nil {
		return nil, fmt.Errorf("instantiate case %s: %w", req.Case, err)
	}
	w := sched.NewWeights(req.Alpha, req.Beta)

	var (
		metrics          sched.Metrics
		state            *sched.State
		steps            int
		requeued         int
		applied, skipped int
		plan             *fault.Plan
		elapsed          float64
		rec              *trace.Recorder
	)
	//lint:errdrop Validate already rejected unknown heuristics, so variant cannot fail here
	if variant, isSLRH, _ := req.variant(); isSLRH {
		cfg := core.DefaultConfig(variant, w)
		cfg.DeltaT = req.DeltaT
		cfg.Horizon = req.Horizon
		if req.Adaptive {
			cfg.Adaptive = core.NewAdaptiveController(w)
		}
		//lint:errdrop Validate already rejected malformed fault specs, so faultPlan cannot fail here
		plan, _ = req.faultPlan()
		if plan != nil && !plan.Empty() {
			cfg.Faults = plan
		}
		if req.Trace {
			rec = trace.NewRecorder()
			cfg.Observer = rec.Observe
		}
		var a *core.Arena
		if ap != nil {
			a = ap.Get()
			// Released on return: the result assembly below reads the
			// arena-owned state, and nothing escaping this function keeps
			// a reference to it.
			defer ap.Put(a)
		}
		res, err := core.RunArena(inst, cfg, a)
		if err != nil {
			return nil, fmt.Errorf("run %s: %w", req.Heuristic, err)
		}
		metrics, state = res.Metrics, res.State
		steps, requeued = res.Timesteps, res.Requeued
		applied, skipped = res.FaultsApplied, res.FaultsSkipped
		elapsed = res.Elapsed.Seconds()
	} else {
		res, err := maxmax.Run(inst, maxmax.Config{Weights: w})
		if err != nil {
			return nil, fmt.Errorf("run maxmax: %w", err)
		}
		metrics, state = res.Metrics, res.State
		steps = res.Steps
		elapsed = res.Elapsed.Seconds()
	}

	result := &Result{
		Request:    req,
		Weights:    WeightsReport{Alpha: w.Alpha, Beta: w.Beta, Gamma: w.Gamma},
		TauSeconds: grid.CyclesToSeconds(inst.TauCycles),
		TSE:        inst.Grid.TSE(),
		Metrics: MetricsReport{
			Mapped:     metrics.Mapped,
			T100:       metrics.T100,
			TEC:        metrics.TEC,
			AETSeconds: metrics.AETSeconds,
			Objective:  metrics.Objective,
			Complete:   metrics.Complete,
			MetTau:     metrics.MetTau,
			Feasible:   metrics.Feasible(),
		},
		Steps:         steps,
		Requeued:      requeued,
		FaultsApplied: applied,
		FaultsSkipped: skipped,
		VerifyOK:      true,
	}
	for j := 0; j < inst.Grid.M(); j++ {
		m := MachineReport{
			ID:        j,
			Class:     inst.Grid.Machines[j].Class.String(),
			Battery:   inst.Grid.Machines[j].Battery,
			Remaining: state.Ledger.Remaining(j),
			Alive:     state.Alive(j),
		}
		if !m.Alive {
			m.DeadAt = state.DeadAt(j)
		}
		for _, iv := range state.Downtime(j) {
			m.Downtime = append(m.Downtime, CycleWindow{Start: iv.Start, End: iv.End})
		}
		result.Machines = append(result.Machines, m)
	}
	// VerifyPlan subsumes Verify and additionally cross-checks the run
	// against the requested fault plan (nil for maxmax or no faults).
	for _, v := range sim.VerifyPlan(state, plan) {
		result.VerifyOK = false
		result.Violations = append(result.Violations, v.String())
	}

	out := &Outcome{Result: result, Elapsed: elapsed}
	if req.Trace {
		doc := trace.NewDocument(rec, state)
		out.Trace = &doc
	}
	return out, nil
}

// RequestError marks an error as the client's fault (HTTP 400).
type RequestError struct{ Err error }

func (e *RequestError) Error() string { return e.Err.Error() }
func (e *RequestError) Unwrap() error { return e.Err }

// EncodeResult writes the canonical serialization of a result: indented
// JSON plus a trailing newline. Both the service and `slrhsim -json`
// emit through this one function, so their bytes agree (the parity
// tests pin it).
func EncodeResult(w io.Writer, res *Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}
