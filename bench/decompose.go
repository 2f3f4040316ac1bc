package main

import (
	"runtime"
	"sync"
	"time"

	"adhocgrid/internal/core"
	"adhocgrid/internal/fault"
	"adhocgrid/internal/grid"
	"adhocgrid/internal/maxmax"
	"adhocgrid/internal/rng"
	"adhocgrid/internal/sched"
	"adhocgrid/internal/serve"
	"adhocgrid/internal/sim"
	"adhocgrid/internal/workload"
)

// span is one timed call, as the trace file records it. Times are µs
// since the trace began.
type span struct {
	Req    string  `json:"req"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root span
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run writes them out. It is
// safe for concurrent use: the replay's hooks record from server
// goroutines.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now()} //lint:wallclock trace epoch; span times are offsets from it
}

func (t *tracer) now() float64 {
	return float64(time.Since(t.epoch).Nanoseconds()) / 1e3 //lint:wallclock span timestamp
}

// begin opens a span and returns its id.
func (t *tracer) begin(req string, parent int, name string) int {
	at := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Req: req, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: at})
	return len(t.spans)
}

// end closes span id and returns it.
func (t *tracer) end(id int) span {
	at := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = at
	return t.spans[id-1]
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// probe brackets each public call of the decomposition: spanProbe
// times it, allocProbe counts its heap allocations.
type probe interface {
	begin(name string) int
	end(id int)
}

// spanProbe records each call as a span of one request and totals the
// time per span name, in µs.
type spanProbe struct {
	t      *tracer
	req    string
	parent int
	total  map[string]float64
}

func newSpanProbe(t *tracer, req string, parent int) *spanProbe {
	return &spanProbe{t: t, req: req, parent: parent, total: map[string]float64{}}
}

func (p *spanProbe) begin(name string) int { return p.t.begin(p.req, p.parent, name) }

func (p *spanProbe) end(id int) {
	s := p.t.end(id)
	p.total[s.Name] += s.End - s.Start
}

// allocProbe totals heap allocations per span name. Its bracketing
// calls stop the world, so it runs in a pass of its own, never around
// timed calls.
type allocProbe struct {
	open  map[int]allocMark
	next  int
	total map[string]float64
}

type allocMark struct {
	name    string
	mallocs uint64
}

func newAllocProbe() *allocProbe {
	return &allocProbe{open: map[int]allocMark{}, total: map[string]float64{}}
}

func (p *allocProbe) begin(name string) int {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.next++
	p.open[p.next] = allocMark{name: name, mallocs: ms.Mallocs}
	return p.next
}

func (p *allocProbe) end(id int) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := p.open[id]
	delete(p.open, id)
	p.total[m.name] += float64(ms.Mallocs - m.mallocs)
}

// stepTimer is a core.Config.Observer that records the wall time of
// every SLRH timestep, in µs.
type stepTimer struct {
	last time.Time
	us   []float64
}

// arm starts the clock for the first timestep.
func (s *stepTimer) arm() { s.last = time.Now() } //lint:wallclock timestep timing for the traced run; the observer never feeds the schedule

func (s *stepTimer) observe(int64, *sched.State) {
	now := time.Now() //lint:wallclock timestep timing for the traced run; the observer never feeds the schedule
	s.us = append(s.us, float64(now.Sub(s.last).Nanoseconds())/1e3)
	s.last = now
}

// prepared is a validated request with its generated instance and SLRH
// configuration: what serve.ExecuteArena holds before it borrows an
// arena.
type prepared struct {
	req  serve.Request // canonical
	plan *fault.Plan   // parsed fault plan; nil for maxmax
	inst *workload.Instance
	cfg  core.Config // zero for maxmax
	slrh bool
}

// prepare repeats the first half of serve.ExecuteArena call by call:
// canonicalize and validate, generate the workload, instantiate the
// grid case, configure the run with a scoring fan-out of fan.
func prepare(p probe, req serve.Request, fan int) (*prepared, error) {
	id := p.begin("serve.validate")
	pr := &prepared{req: req.Canonical()}
	err := pr.req.Validate(0)
	pr.slrh = pr.req.Heuristic != "maxmax"
	if err == nil && pr.slrh {
		pr.plan, err = requestPlan(pr.req)
	}
	p.end(id)
	if err != nil {
		return nil, err
	}

	id = p.begin("workload.generate")
	params := workload.DefaultParams(pr.req.N)
	params.EnergyScale = pr.req.EnergyScale
	scn, err := workload.Generate(params, rng.New(pr.req.Seed))
	p.end(id)
	if err != nil {
		return nil, err
	}

	id = p.begin("workload.instantiate")
	pr.inst, err = scn.Instantiate(gridCaseOf(pr.req.Case))
	p.end(id)
	if err != nil {
		return nil, err
	}

	if pr.slrh {
		w := sched.NewWeights(pr.req.Alpha, pr.req.Beta)
		pr.cfg = core.DefaultConfig(variantOf(pr.req.Heuristic), w)
		pr.cfg.DeltaT, pr.cfg.Horizon = pr.req.DeltaT, pr.req.Horizon
		pr.cfg.PoolWorkers, pr.cfg.ScoreWorkers = fan, fan
		if pr.req.Adaptive {
			pr.cfg.Adaptive = core.NewAdaptiveController(w)
		}
		if !pr.plan.Empty() {
			pr.cfg.Faults = pr.plan
		}
	}
	return pr, nil
}

// execute repeats the second half of serve.ExecuteArena: borrow an
// arena, run the heuristic, assemble the result, verify the schedule
// against the fault plan, return the arena. steps, when non-nil, times
// every SLRH timestep.
func execute(p probe, pr *prepared, ap *core.ArenaPool, steps *stepTimer) (*serve.Result, error) {
	var (
		metrics          sched.Metrics
		state            *sched.State
		nsteps, requeued int
		applied, skipped int
	)
	w := sched.NewWeights(pr.req.Alpha, pr.req.Beta)
	if pr.slrh {
		id := p.begin("core.arena")
		a := ap.Get()
		p.end(id)
		defer func() {
			id := p.begin("core.arena")
			ap.Put(a)
			p.end(id)
		}()
		cfg := pr.cfg
		if steps != nil {
			cfg.Observer = steps.observe
			steps.arm()
		}
		id = p.begin("core.run")
		res, err := core.RunArena(pr.inst, cfg, a)
		p.end(id)
		if err != nil {
			return nil, err
		}
		metrics, state = res.Metrics, res.State
		nsteps, requeued = res.Timesteps, res.Requeued
		applied, skipped = res.FaultsApplied, res.FaultsSkipped
	} else {
		id := p.begin("maxmax.run")
		res, err := maxmax.Run(pr.inst, maxmax.Config{Weights: w})
		p.end(id)
		if err != nil {
			return nil, err
		}
		metrics, state, nsteps = res.Metrics, res.State, res.Steps
	}

	id := p.begin("serve.assemble")
	result := &serve.Result{
		Request:    pr.req,
		Weights:    serve.WeightsReport{Alpha: w.Alpha, Beta: w.Beta, Gamma: w.Gamma},
		TauSeconds: grid.CyclesToSeconds(pr.inst.TauCycles),
		TSE:        pr.inst.Grid.TSE(),
		Metrics: serve.MetricsReport{
			Mapped: metrics.Mapped, T100: metrics.T100, TEC: metrics.TEC, AETSeconds: metrics.AETSeconds,
			Objective: metrics.Objective, Complete: metrics.Complete, MetTau: metrics.MetTau, Feasible: metrics.Feasible(),
		},
		Steps:         nsteps,
		Requeued:      requeued,
		FaultsApplied: applied,
		FaultsSkipped: skipped,
		VerifyOK:      true,
	}
	for j := 0; j < pr.inst.Grid.M(); j++ {
		m := serve.MachineReport{
			ID:        j,
			Class:     pr.inst.Grid.Machines[j].Class.String(),
			Battery:   pr.inst.Grid.Machines[j].Battery,
			Remaining: state.Ledger.Remaining(j),
			Alive:     state.Alive(j),
		}
		if !m.Alive {
			m.DeadAt = state.DeadAt(j)
		}
		for _, iv := range state.Downtime(j) {
			m.Downtime = append(m.Downtime, serve.CycleWindow{Start: iv.Start, End: iv.End})
		}
		result.Machines = append(result.Machines, m)
	}
	p.end(id)

	id = p.begin("sim.verify")
	for _, v := range sim.VerifyPlan(state, pr.plan) {
		result.VerifyOK = false
		result.Violations = append(result.Violations, v.String())
	}
	p.end(id)
	return result, nil
}

// requestPlan is the canonical request's fault plan: the Faults DSL
// merged with the Lose sugar, normalized (as serve resolves it).
func requestPlan(req serve.Request) (*fault.Plan, error) {
	pl, err := fault.ParsePlan(req.Faults)
	if err != nil {
		return nil, err
	}
	for _, e := range req.Lose {
		pl.Events = append(pl.Events, fault.Event{Kind: fault.Lose, At: e.At, Machine: e.Machine})
	}
	pl.Normalize()
	return pl, nil
}

// variantOf resolves a canonical SLRH heuristic name.
func variantOf(h string) core.Variant {
	switch h {
	case "slrh2":
		return core.SLRH2
	case "slrh3":
		return core.SLRH3
	}
	return core.SLRH1
}
