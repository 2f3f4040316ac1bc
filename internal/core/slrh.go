// Package core implements the paper's primary contribution: the
// Simplified Lagrangian Receding Horizon (SLRH) resource manager and its
// three variants (§IV–V), plus the adaptive-multiplier extension the paper
// names as future work (§VIII).
//
// The SLRH is a clock-driven dynamic heuristic. Every ΔT clock cycles it
// visits each machine in numeric order; for every available machine it
// builds a pool of feasible candidate subtasks, scores each candidate at
// both versions with the Lagrangian objective function, and maps the
// highest-scoring candidate that can start within the receding horizon H.
// The variants differ only in how many assignments are made per machine
// per timestep and when the pool is rebuilt:
//
//	SLRH-1: at most one assignment per machine per timestep.
//	SLRH-2: keeps assigning from the same pool until it is exhausted or
//	        nothing more can start within the horizon.
//	SLRH-3: like SLRH-2, but recreates and rescores the pool after every
//	        assignment, so children become candidates immediately.
package core

import (
	"fmt"
	"sort"
	"time"

	"adhocgrid/internal/fault"
	"adhocgrid/internal/sched"
	"adhocgrid/internal/workload"
)

// Variant selects the SLRH flavor (§V).
type Variant int

const (
	// SLRH1 is the baseline variant: one assignment per machine per timestep.
	SLRH1 Variant = iota + 1
	// SLRH2 drains the pool built at the start of the machine's turn.
	SLRH2
	// SLRH3 rebuilds and rescores the pool after every assignment.
	SLRH3
)

// String returns "SLRH-1" etc.
func (v Variant) String() string {
	switch v {
	case SLRH1:
		return "SLRH-1"
	case SLRH2:
		return "SLRH-2"
	case SLRH3:
		return "SLRH-3"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Paper parameter defaults (§VII): ΔT = 10 clock cycles, H = 100 clock
// cycles, established by the sweep reproduced in Figure 2.
const (
	DefaultDeltaT  = 10
	DefaultHorizon = 100
)

// Config parameterizes one SLRH run.
type Config struct {
	Variant Variant
	Weights sched.Weights
	DeltaT  int64 // cycles between heuristic activations
	Horizon int64 // receding horizon H, cycles

	// Adaptive, when non-nil, re-derives the objective weights at every
	// timestep (extension; see adaptive.go).
	Adaptive *AdaptiveController

	// Observer, when non-nil, is invoked after each timestep with the
	// current clock and state (used by the trace recorder). It must not
	// mutate the state.
	Observer func(now int64, st *sched.State)

	// Events, when non-nil, injects dynamic grid changes: before the
	// timestep at cycle `now`, every event with At <= now that has not yet
	// fired is applied (machine-loss extension).
	Events []Event

	// Faults, when non-nil, injects the full fault plan: machine losses
	// and rejoins, transient subtask failures, and link-degradation
	// windows (see internal/fault). It is merged with the legacy Events
	// list (each entry treated as a loss), normalized, and validated
	// before the run. Events with At beyond the cycle where every
	// execution has completed never fire.
	Faults *fault.Plan

	// OptimisticComm switches the pool-feasibility test to the ablation
	// variant that omits the worst-case child-communication energy
	// reservation (§IV design choice; see BenchmarkAblationCommEnergy).
	OptimisticComm bool

	// ScoreWorkers and PoolWorkers are read by nothing: scoring is
	// serial (DESIGN.md §14).
	//
	// Deprecated: ignored; kept only because bench/ compiles against it.
	ScoreWorkers int
	// Deprecated: ignored; kept only because bench/ compiles against it.
	PoolWorkers int

	// DisablePlanCache turns off the generation-tracked candidate plan
	// cache (see plancache.go) and re-prices every eligible candidate at
	// every pool build. Results are identical either way — the flag exists
	// for the differential tests and benchmarks that prove it.
	DisablePlanCache bool
}

// Event is a dynamic grid change injected during a run.
type Event struct {
	At      int64 // cycle at which the event fires
	Machine int   // machine lost
}

// DefaultConfig returns the paper's baseline configuration for a variant.
func DefaultConfig(v Variant, w sched.Weights) Config {
	return Config{Variant: v, Weights: w, DeltaT: DefaultDeltaT, Horizon: DefaultHorizon}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch c.Variant {
	case SLRH1, SLRH2, SLRH3:
	default:
		return fmt.Errorf("core: unknown variant %d", int(c.Variant))
	}
	if err := c.Weights.Validate(); err != nil {
		return err
	}
	if c.DeltaT <= 0 {
		return fmt.Errorf("core: DeltaT must be positive, got %d", c.DeltaT)
	}
	if c.Horizon < 0 {
		return fmt.Errorf("core: Horizon must be non-negative, got %d", c.Horizon)
	}
	return nil
}

// Result reports one SLRH run.
type Result struct {
	Metrics   sched.Metrics
	State     *sched.State
	Timesteps int           // heuristic activations performed
	Elapsed   time.Duration // heuristic wall time (Figs 2, 6, 7)
	Requeued  int           // subtasks re-mapped after losses and failures

	// FaultsApplied counts fault events that fired and changed the state;
	// FaultsSkipped counts fail events whose subtask had no in-flight
	// execution at the fault instant (both deterministic functions of the
	// seed, scenario, and plan).
	FaultsApplied int
	FaultsSkipped int
}

// candPool is the candidate pool U in struct-of-arrays layout (DESIGN.md
// §19): the sort and the sweep permute a dense int32 order array over
// parallel score/subtask columns instead of moving ~100-byte candidate
// structs, and each plan's transfer contents are copied into a
// pool-owned slab, so later repricings of the cache entry the plan came
// from cannot mutate a pool entry in place (SLRH-2 revisits pool entries
// after failed commits; the copy pins their build-time pricing).
type candPool struct {
	subtask []int32
	version []workload.Version
	score   []float64
	plan    []sched.Plan
	order   []int32 // sorted permutation; mapFirstStartable removes from it
	slab    trSlab
}

// reset empties the pool for the next build, keeping every backing array
// and the transfer slab's chunks.
func (p *candPool) reset() {
	p.subtask = p.subtask[:0]
	p.version = p.version[:0]
	p.score = p.score[:0]
	p.plan = p.plan[:0]
	p.order = p.order[:0]
	p.slab.reset()
}

// add appends one candidate, copying the plan's transfers into the
// pool's slab (the source buffer is cache- or scratch-owned and will be
// overwritten by the next pricing).
func (p *candPool) add(i int, v workload.Version, plan *sched.Plan, score float64) {
	p.order = append(p.order, int32(len(p.subtask)))
	p.subtask = append(p.subtask, int32(i))
	p.version = append(p.version, v)
	p.score = append(p.score, score)
	p.plan = append(p.plan, *plan)
	pl := &p.plan[len(p.plan)-1]
	pl.Transfers = p.slab.copy(pl.Transfers)
}

// sort.Interface over the order permutation: descending score, ascending
// subtask id. The key is unique, so any comparison sort yields the same
// deterministic order; sort.Sort on the pointer receiver avoids the
// per-call comparator allocation of the slices helpers.
func (p *candPool) Len() int      { return len(p.order) }
func (p *candPool) Swap(a, b int) { p.order[a], p.order[b] = p.order[b], p.order[a] }
func (p *candPool) Less(a, b int) bool {
	x, y := p.order[a], p.order[b]
	switch {
	case p.score[x] > p.score[y]:
		return true
	case p.score[x] < p.score[y]:
		return false
	default:
		return p.subtask[x] < p.subtask[y]
	}
}

// trChunkLen sizes the slab chunks of candPool and the per-run transfer
// interning in sched.State; plans carry a handful of transfers, so one
// chunk serves many candidates.
const trChunkLen = 256

// trSlab is a chunked transfer arena: spans handed out by copy stay at
// their addresses until reset, and reset keeps the chunks for reuse.
type trSlab struct {
	chunks [][]sched.Transfer
	cur    int
}

func (s *trSlab) reset() {
	for k := range s.chunks {
		s.chunks[k] = s.chunks[k][:0]
	}
	s.cur = 0
}

// copy stores a copy of ts in the slab and returns the stored span; nil
// in, nil out (plans distinguish nil from empty).
func (s *trSlab) copy(ts []sched.Transfer) []sched.Transfer {
	if ts == nil {
		return nil
	}
	need := len(ts)
	for {
		if s.cur == len(s.chunks) {
			size := trChunkLen
			if need > size {
				size = need
			}
			s.chunks = append(s.chunks, make([]sched.Transfer, 0, size))
		}
		c := s.chunks[s.cur]
		if cap(c)-len(c) >= need {
			out := c[len(c) : len(c)+need : len(c)+need]
			copy(out, ts)
			s.chunks[s.cur] = c[:len(c)+need]
			return out
		}
		s.cur++
	}
}

// runner holds per-run scratch state so the hot loop does not allocate.
// A zero runner is ready; an Arena (arena.go) keeps one alive across
// runs so every buffer below reaches steady state after the first run
// and stays there.
type runner struct {
	st        *sched.State
	cfg       Config
	readyBuf  []int
	eligible  []int
	pool      candPool
	cache     *planCache       // nil when Config.DisablePlanCache
	pairBuf   planPair         // pricing scratch when the cache is off
	trScratch []sched.Transfer // cache-off pricing transfer buffer
	revalCost []senderCost     // reusable revalidation scratch
}

// Run executes the SLRH heuristic on the instance and returns the
// resulting schedule and metrics: RunArena on a fresh arena.
func Run(inst *workload.Instance, cfg Config) (*Result, error) {
	return RunArena(inst, cfg, nil)
}

// run drives the clock loop on st, writing the outcome into *res. The
// runner's buffers, pools, and plan cache are reset in place and reused,
// which is what makes the arena path's steady state allocation-free; a
// zero runner behaves identically and simply grows them on first use.
func (r *runner) run(st *sched.State, cfg Config, res *Result) error {
	// Merge the structured fault plan with the legacy loss-event list into
	// one validated, ordered event sequence, and install the plan's
	// link-degradation windows before any pricing happens.
	var pl fault.Plan
	if cfg.Faults != nil {
		pl.Events = append(pl.Events, cfg.Faults.Events...)
		pl.Windows = append(pl.Windows, cfg.Faults.Windows...)
	}
	for _, ev := range cfg.Events {
		pl.Events = append(pl.Events, fault.Event{Kind: fault.Lose, At: ev.At, Machine: ev.Machine})
	}
	// Normalize/Validate are no-ops on an empty plan; skipping them keeps
	// the no-fault steady state (the benchmarked one) allocation-free.
	if len(pl.Events) > 0 || len(pl.Windows) > 0 {
		pl.Normalize()
		if err := pl.Validate(st.Inst.Grid.M(), st.N()); err != nil {
			return err
		}
	}
	fev := pl.Events
	if len(pl.Windows) > 0 {
		ws := make([]sched.LinkSlowdown, len(pl.Windows))
		for k, w := range pl.Windows {
			ws[k] = sched.LinkSlowdown{Start: w.Start, End: w.End, Factor: w.Factor}
		}
		st.SetLinkSlowdowns(ws)
	}

	r.st, r.cfg = st, cfg
	if cfg.DisablePlanCache {
		r.cache = nil
	} else if r.cache == nil {
		r.cache = newPlanCache(st.N(), st.Inst.Grid.M())
	} else {
		r.cache.reset(st.N(), st.Inst.Grid.M())
	}
	inst := st.Inst
	*res = Result{State: st}
	eventIdx := 0
	// The stall-detection fixpoint argument assumes every subtask is
	// available; with an arrival process the last release bounds when the
	// state can still change on its own.
	var lastArrival int64
	if inst.Scenario.Arrivals != nil {
		for _, a := range inst.Scenario.Arrivals {
			if a > lastArrival {
				lastArrival = a
			}
		}
	}

	start := time.Now() //lint:wallclock elapsed-time reporting only; never a scheduling input
	for now := int64(0); now <= inst.TauCycles; now += cfg.DeltaT {
		// Fire dynamic events scheduled at or before this activation.
		for eventIdx < len(fev) && fev[eventIdx].At <= now {
			ev := fev[eventIdx]
			eventIdx++
			switch ev.Kind {
			case fault.Lose:
				requeued, err := st.LoseMachine(ev.Machine, ev.At)
				if err != nil {
					return err
				}
				res.Requeued += len(requeued)
				res.FaultsApplied++
			case fault.Rejoin:
				if err := st.RejoinMachine(ev.Machine, ev.At); err != nil {
					return err
				}
				res.FaultsApplied++
			case fault.Fail:
				// A transient failure only aborts an execution that is
				// actually in flight at the fault instant; otherwise there
				// is nothing to abort and the event is recorded as skipped
				// (a deterministic function of the schedule).
				a := st.Assignments[ev.Subtask]
				if a == nil || ev.At < a.Start || ev.At >= a.End {
					res.FaultsSkipped++
					continue
				}
				requeued, err := st.FailSubtask(ev.Subtask, ev.At)
				if err != nil {
					return err
				}
				res.Requeued += len(requeued)
				res.FaultsApplied++
			default:
				return fmt.Errorf("core: unknown fault kind %d", int(ev.Kind))
			}
		}
		if st.Done() {
			// The mapping is complete, but execution continues until AET
			// and a machine lost before then still invalidates scheduled
			// work (§I). Fast-forward to the next event; stop when no
			// event can still fire before everything has really finished.
			if eventIdx >= len(fev) || fev[eventIdx].At > st.AETCycles {
				break
			}
			if next := fev[eventIdx].At; next > now {
				steps := (next - now + cfg.DeltaT - 1) / cfg.DeltaT
				now += (steps - 1) * cfg.DeltaT // loop increment adds the last step
				continue
			}
		}
		if cfg.Adaptive != nil {
			st.SetWeights(cfg.Adaptive.Update(st, now))
		}

		res.Timesteps++
		mappedBefore := st.Mapped
		for j := 0; j < inst.Grid.M(); j++ {
			if !st.MachineAvailable(j, now) {
				continue
			}
			switch cfg.Variant {
			case SLRH1:
				r.buildPool(j, now)
				r.mapFirstStartable(now, false)
			case SLRH2:
				// SLRH-2 drains the pool built at the start of the
				// machine's turn without re-evaluating it (§V): the
				// horizon test keeps using each entry's originally-priced
				// start, so the machine absorbs assignments its real
				// timeline could only begin much later. This is the
				// behavior behind the paper's finding that SLRH-2 rarely
				// produced a feasible mapping.
				r.buildPool(j, now)
				for r.mapFirstStartable(now, true) {
				}
			case SLRH3:
				for {
					r.buildPool(j, now)
					if !r.mapFirstStartable(now, false) {
						break
					}
				}
			}
			if st.Done() {
				break
			}
		}
		if cfg.Observer != nil {
			cfg.Observer(now, st)
		}
		// Stall detection: once every execution has finished (all machines
		// idle) and a full sweep mapped nothing, the state is a fixpoint —
		// feasibility depends only on energy and readiness, both of which
		// change only through commits — so no later timestep can differ.
		// Pending loss events can still requeue work, so only bail when
		// none remain.
		if st.Mapped == mappedBefore && now >= st.AETCycles && now >= lastArrival &&
			eventIdx == len(fev) {
			break
		}
	}
	res.Elapsed = time.Since(start) //lint:wallclock elapsed-time reporting only; never a scheduling input
	res.Metrics = st.Metrics()
	return nil
}

// buildPool collects the pool U of feasible candidates for machine j at
// clock `now` (§IV): every unmapped subtask whose parents are all mapped
// and whose secondary version (plus worst-case child communication) fits
// the machine's remaining energy. Each pool entry carries the version that
// maximizes the objective function and its priced plan. The pool is sorted
// by descending score.
func (r *runner) buildPool(j int, now int64) {
	st := r.st
	r.pool.reset()
	r.readyBuf = st.ReadySet(r.readyBuf)
	r.eligible = r.eligible[:0]
	for _, i := range r.readyBuf {
		// Dynamic heuristics only see subtasks that have arrived (the
		// static baselines have full advance knowledge and ignore this).
		if st.Inst.ArrivalCycle(i) > now {
			continue
		}
		if r.cfg.OptimisticComm {
			if !st.FeasibleSLRHOptimistic(i, j) {
				continue
			}
		} else if !st.FeasibleSLRH(i, j) {
			continue
		}
		r.eligible = append(r.eligible, i)
	}
	for _, i := range r.eligible {
		r.poolAddBest(i, r.plansFor(i, j, now))
	}
	sort.Sort(&r.pool)
}

// plansFor returns the candidate pricing for (i, j), consulting and
// maintaining the plan cache when enabled. The returned pointer is into
// the cache entry (or a runner scratch slot) and is only valid until the
// next pricing call.
func (r *runner) plansFor(i, j int, now int64) *planPair {
	if r.cache == nil {
		r.pairBuf = r.pricePair(i, j, now)
		return &r.pairBuf
	}
	if pair, ok := r.cachedPair(i, j, now); ok {
		return pair
	}
	return r.repriceEntry(r.cache.entry(i, j), i, j, now)
}

// freshPlan re-prices one version of candidate (i, j), going through the
// plan cache when it is enabled (the stale re-check in mapFirstStartable
// follows commits, which is exactly what the cache's revalidation and
// geometry-replay paths absorb).
func (r *runner) freshPlan(i, j int, v workload.Version, now int64) (sched.Plan, bool) {
	if r.cache == nil {
		fresh, err := r.st.PlanCandidate(i, j, v, now)
		return fresh, err == nil
	}
	pair := r.plansFor(i, j, now)
	if v == workload.Primary {
		return pair.planP, pair.okP
	}
	return pair.planS, pair.okS
}

// poolAddBest picks the version of a priced pair with the larger
// objective value (ties prefer the primary, which serves the study's
// stated goal of maximizing T100) and appends it to the pool; a pair
// with no feasible version adds nothing. Scores are always computed
// fresh: Hypothetical depends on the schedule's aggregates, which move
// with every commit.
func (r *runner) poolAddBest(i int, pair *planPair) {
	st := r.st
	switch {
	case !pair.okS && !pair.okP:
		return
	case !pair.okP:
		r.pool.add(i, workload.Secondary, &pair.planS, st.Hypothetical(&pair.planS))
		return
	case !pair.okS:
		r.pool.add(i, workload.Primary, &pair.planP, st.Hypothetical(&pair.planP))
		return
	}
	scoreP, scoreS := st.Hypothetical(&pair.planP), st.Hypothetical(&pair.planS)
	if scoreP >= scoreS {
		r.pool.add(i, workload.Primary, &pair.planP, scoreP)
	} else {
		r.pool.add(i, workload.Secondary, &pair.planS, scoreS)
	}
}

// mapFirstStartable walks the ordered pool and commits the first candidate
// whose earliest start lies within the receding horizon (§IV). Entries
// whose cached plan has gone stale (because an earlier commit in this
// timestep changed the timelines or energy) are re-priced before
// committing; with cachedHorizon the horizon test still uses the stale
// start (SLRH-2's no-re-evaluation semantics), otherwise the fresh one.
// The mapped entry is removed from the pool. Returns whether an assignment
// was made.
func (r *runner) mapFirstStartable(now int64, cachedHorizon bool) bool {
	st := r.st
	p := &r.pool
	deadline := now + r.cfg.Horizon
	for k := 0; k < len(p.order); k++ {
		ord := p.order[k]
		subtask := int(p.subtask[ord])
		if st.Assignments[subtask] != nil {
			continue
		}
		plan := &p.plan[ord]
		if stale := st.Mapped > 0 && planStale(st, plan); stale {
			fresh, ok := r.freshPlan(subtask, plan.Machine, p.version[ord], now)
			if !ok {
				continue
			}
			if cachedHorizon {
				// SLRH-2: the pool is not re-evaluated, so the horizon
				// test sees the start priced when the pool was built.
				if plan.Start > deadline {
					continue
				}
			} else if fresh.Start > deadline {
				continue
			}
			if err := st.Commit(fresh); err != nil {
				continue
			}
			p.order = append(p.order[:k], p.order[k+1:]...)
			return true
		}
		if plan.Start > deadline {
			continue
		}
		if err := st.Commit(*plan); err != nil {
			// A commit can still fail when a sender's energy was consumed
			// by an earlier assignment this timestep; drop the candidate.
			continue
		}
		p.order = append(p.order[:k], p.order[k+1:]...)
		return true
	}
	return false
}

// planStale reports whether a cached plan can no longer be committed
// as-is: its execution slot or one of its transfer slots has been taken.
func planStale(st *sched.State, plan *sched.Plan) bool {
	if st.ExecTL[plan.Machine].EarliestFit(plan.Start, plan.End-plan.Start) != plan.Start {
		return true
	}
	for _, tr := range plan.Transfers {
		dur := tr.End - tr.Start
		if dur == 0 {
			continue
		}
		if st.SendTL[tr.From].EarliestFit(tr.Start, dur) != tr.Start {
			return true
		}
		if st.RecvTL[tr.To].EarliestFit(tr.Start, dur) != tr.Start {
			return true
		}
	}
	return false
}
