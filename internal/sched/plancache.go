package sched

import (
	"math"

	"adhocgrid/internal/workload"
)

// Candidate plan cache with generation-based dirty tracking.
//
// Pricing a candidate (subtask i on machine j) is the hot path of both
// heuristics: it packs every incoming transfer onto link timelines and
// places the execution interval, at both versions. The SLRH prices every
// eligible (i, j) pair at every ΔT activation; Max-Max prices every ready
// (i, j) pair at every assignment. Most of that work is redundant — a
// timestep that commits nothing changes no timelines or energy, and a
// commit only touches a handful of machines. The cache memoizes the full
// pricing of both versions per (i, j) and reuses it whenever fresh
// pricing would provably reproduce it bit-for-bit:
//
//   - Fast path: every machine the plan depends on (the target machine
//     plus each off-machine parent's sender) has an unchanged
//     State generation, and either the clock has not advanced since
//     pricing or every booked cycle of the entry lies at or after the
//     current clock (raising the planner's "never look backward" lower
//     bound below the chosen slots cannot change them, and a pair that
//     failed before packing never read the clock).
//   - Revalidation path (same shrink epoch): a dep machine's generation
//     changed — some commit touched it — but as long as the State's
//     ShrinkEpoch is unchanged every intervening mutation was a commit,
//     so resources only shrank (timelines gained bookings, ledgers only
//     decreased). A transfer packing whose exact slots are still free is
//     then what fresh pricing finds again, and with it the arrival: a
//     plan whose execution slot is still free and whose energy guards
//     still pass is reproduced, and a version that missed τ misses it
//     again. The packing is kept and checked even when both versions
//     missed τ — the greedy packing is not monotone in added bookings, so
//     a τ verdict is only as stable as the packing behind it. Entries
//     priced in earlier timesteps qualify too, provided none of their
//     booked cycles lies before the current clock.
//   - Geometry replay: on a miss within the epoch the entry's
//     CandidateGeom is still valid, so only the placement is re-run.
//
// Both reuse arguments rest on a transfer's duration being fixed. Under a
// link-degradation window it is sampled at each candidate start, the
// slot search is no longer monotone in the bookings or the clock, and
// only an entry whose deps are untouched at the same clock is reused.
//
// Anything else is a miss and is re-priced from scratch. Objective scores
// are never cached: Hypothetical depends on the aggregate T100/TEC/AET,
// which move with every commit, so callers score the cached plans fresh.
//
// A PlanCache is owned by a single goroutine and needs no locking.

// PlanPair is the pricing of one (subtask, machine) candidate at both
// versions. OKP/OKS report whether the version admitted a plan; the
// failure reasons (energy, τ, sender energy) are not kept because every
// consumer only needs the verdict. The two plans share one transfer
// slice.
type PlanPair struct {
	PlanP, PlanS Plan
	OKP, OKS     bool
}

// depGen records the generation one machine had when an entry was priced.
type depGen struct {
	machine int
	gen     uint64
}

// planEntry is one cached (subtask, machine) pricing. Alongside the
// priced pair it keeps the candidate's geometry: assignments are
// append-only within a shrink epoch, so the geometry stays valid for the
// whole epoch even when the pair itself goes stale, and a miss can replay
// just the placement instead of re-pricing from scratch.
type planEntry struct {
	valid     bool
	now       int64    // clock at pricing time
	minStart  int64    // earliest booked cycle of the packing and both plans; MaxInt64 if none
	placed    bool     // the transfers were packed (some version reached its τ check)
	epoch     uint64   // ShrinkEpoch at pricing time
	deps      []depGen // target machine first, then off-machine parent senders
	depsEpoch uint64   // ShrinkEpoch the dep machine list was derived in; valid when depsKnown
	depsKnown bool
	pair      PlanPair
	geomValid bool
	geomEpoch uint64 // ShrinkEpoch at geometry capture
	geom      CandidateGeom

	// trBuf is the entry-owned transfer backing of pair's plans: every
	// repricing of this entry rebuilds the transfers in place, so the
	// pair's plans are valid until the entry's next repricing. Consumers
	// that outlive that (a candidate pool, Commit) copy the contents out.
	// packing is the packed prefix of trBuf when placed, also when both
	// versions then missed τ and the pair holds no plan.
	trBuf   []Transfer
	packing []Transfer
}

// PlanCache holds one entry per (subtask, machine) pair of one State.
type PlanCache struct {
	m         int
	entries   []planEntry
	revalCost []machineCost // revalidation scratch
}

// NewPlanCache returns an empty cache for n subtasks on m machines.
func NewPlanCache(n, m int) *PlanCache {
	return &PlanCache{m: m, entries: make([]planEntry, n*m)}
}

// Reset readies the cache for a new run of n subtasks on m machines.
// When the machine stride matches and the entry array is large enough,
// every entry is invalidated in place so entry (i, j) keeps the deps,
// geometry, and transfer backings it grew on earlier runs — a reused
// cache reaches a steady state with no per-run allocation.
func (pc *PlanCache) Reset(n, m int) {
	if m != pc.m || n*m > cap(pc.entries) {
		pc.m = m
		pc.entries = make([]planEntry, n*m)
		return
	}
	pc.entries = pc.entries[:n*m]
	for k := range pc.entries {
		e := &pc.entries[k]
		e.valid = false
		e.geomValid = false
		e.depsKnown = false
	}
}

// Pair returns the pricing of candidate (i, j) at clock now — identical
// to PlanCandidateVersions(i, j, now) — from the cache when that is
// provably what fresh pricing would produce, otherwise re-priced into
// the entry. The pointer and the plans' transfers are entry-owned: they
// stay valid until the next Pair call for the same (i, j).
func (pc *PlanCache) Pair(st *State, i, j int, now int64) *PlanPair {
	e := &pc.entries[i*pc.m+j]
	if pc.reusable(st, e, i, j, now) {
		return &e.pair
	}
	if !e.geomValid || e.geomEpoch != st.ShrinkEpoch() {
		// Refresh the geometry for this epoch. It fails only if a parent
		// of i is unmapped, in which case pricing fails identically.
		e.geomValid = false
		if err := st.FillCandidateGeom(i, j, &e.geom); err != nil {
			e.pair, e.placed, e.packing = PlanPair{}, false, nil
			store(st, e, i, j, now)
			return &e.pair
		}
		e.geomValid = true
		e.geomEpoch = st.ShrinkEpoch()
	}
	// Replay only the placement: the same code path PlanCandidateVersions
	// runs after its geometry fill, so the result is identical to fresh
	// pricing by construction.
	planP, errP, planS, errS := st.PlanVersionsFromGeom(i, j, now, &e.geom, &e.trBuf)
	e.pair = PlanPair{PlanP: planP, PlanS: planS, OKP: errP == nil, OKS: errS == nil}
	// A version reaches its τ check only after a successful packing,
	// which placeIncoming left in trBuf.
	e.placed = errP == nil || errP == errPastTau || errS == nil || errS == errPastTau
	e.packing = nil
	if e.placed {
		e.packing = e.trBuf[:len(e.geom.Transfers)]
	}
	store(st, e, i, j, now)
	return &e.pair
}

// reusable reports whether the entry's pricing is what fresh pricing at
// now would produce, refreshing its dep generations after a successful
// revalidation so later lookups take the fast path.
func (pc *PlanCache) reusable(st *State, e *planEntry, i, j int, now int64) bool {
	if !e.valid {
		return false
	}
	if len(st.slowdowns) > 0 {
		// Durations vary with the start cycle: no reuse argument holds
		// beyond "nothing the pricing reads has changed".
		return e.now == now && depsCurrent(st, e)
	}
	// Both reuse paths need the clock guard: either the clock has not
	// advanced since pricing, or no booked cycle lies before it.
	if e.now != now && e.minStart < now {
		return false
	}
	if depsCurrent(st, e) {
		return true
	}
	if e.epoch != st.ShrinkEpoch() || !pc.revalidate(st, e) {
		return false
	}
	setDeps(st, e, i, j)
	e.now = now
	return true
}

// store records the bookkeeping for a pricing just written to e.pair,
// e.placed and e.packing.
func store(st *State, e *planEntry, i, j int, now int64) {
	e.now = now
	e.minStart = entryMinStart(e)
	e.epoch = st.ShrinkEpoch()
	e.valid = true
	setDeps(st, e, i, j)
}

// depsCurrent reports whether every machine the entry depends on still has
// the generation it was priced against.
func depsCurrent(st *State, e *planEntry) bool {
	for _, d := range e.deps {
		if st.Gen(d.machine) != d.gen {
			return false
		}
	}
	return true
}

// setDeps records the current generations of the machines the candidate's
// pricing depends on: the target machine and each off-machine parent's
// machine. Parents are mapped whenever a heuristic prices the candidate
// (it is ready); if one is not, the entry is poisoned. Because
// assignments are append-only within a shrink epoch, the machine *list*
// derived once in an epoch stays correct for the whole epoch, and later
// calls only refresh the generations.
func setDeps(st *State, e *planEntry, i, j int) {
	if e.depsKnown && e.depsEpoch == st.ShrinkEpoch() {
		for k := range e.deps {
			e.deps[k].gen = st.Gen(e.deps[k].machine)
		}
		return
	}
	e.depsKnown = false
	e.deps = append(e.deps[:0], depGen{j, st.Gen(j)})
	for _, p := range st.Inst.Scenario.Graph.Parents(i) {
		pa := st.Assignments[p]
		if pa == nil {
			e.valid = false
			return
		}
		if pa.Machine != j {
			e.deps = append(e.deps, depGen{pa.Machine, st.Gen(pa.Machine)})
		}
	}
	e.depsKnown = true
	e.depsEpoch = st.ShrinkEpoch()
}

// revalidate reports whether the entry's pricing would be reproduced by
// fresh pricing after intervening commits within the same shrink epoch.
// Resources only shrank since pricing, so each packed transfer's slot,
// having been the earliest fit, is still the earliest if it is still
// free; the packing, and with it the arrival, is then reproduced. Given
// the arrival, an admitted version is reproduced if its execution slot is
// still free and its energy guards still pass, and an errored one stays
// errored: its energy guard only gets scarcer and its execution can only
// start later. The caller has already ensured the clock guard and epoch
// equality.
func (pc *PlanCache) revalidate(st *State, e *planEntry) bool {
	if !e.placed {
		// Both versions failed before packing: on their energy guards, a
		// sender short of energy, a stranded parent or a lost target.
		// Energy only gets scarcer, transfer energies are fixed outside
		// degradation windows (which revalidate nothing), and liveness
		// changes bump the epoch.
		return true
	}
	costs := pc.revalCost[:0]
	for _, tr := range e.packing {
		if dur := tr.End - tr.Start; dur > 0 {
			if st.SendTL[tr.From].EarliestFit(tr.Start, dur) != tr.Start {
				return false
			}
			if st.RecvTL[tr.To].EarliestFit(tr.Start, dur) != tr.Start {
				return false
			}
		}
		found := false
		for k := range costs {
			if costs[k].machine == tr.From {
				costs[k].cost += tr.Energy
				found = true
				break
			}
		}
		if !found {
			costs = append(costs, machineCost{tr.From, tr.Energy})
		}
	}
	pc.revalCost = costs[:0]
	for _, c := range costs {
		if st.Ledger.Remaining(c.machine) < c.cost {
			return false
		}
	}
	execOK := func(p *Plan, ok bool, v workload.Version) bool {
		if !ok {
			return true
		}
		if st.ExecTL[p.Machine].EarliestFit(p.Start, p.End-p.Start) != p.Start {
			return false
		}
		return st.Ledger.Remaining(p.Machine) >=
			p.ExecEnergy+st.Inst.WorstChildCommEnergy(p.Subtask, p.Machine, v)
	}
	return execOK(&e.pair.PlanP, e.pair.OKP, workload.Primary) &&
		execOK(&e.pair.PlanS, e.pair.OKS, workload.Secondary)
}

// entryMinStart returns the earliest cycle the entry books anything at —
// its packed transfers and each admitted version's execution — or
// MaxInt64 when it books nothing. An entry whose minStart is at or after
// the current clock is immune to the clock having advanced since pricing.
func entryMinStart(e *planEntry) int64 {
	min := int64(math.MaxInt64)
	if e.pair.OKP {
		min = e.pair.PlanP.Start
	}
	if e.pair.OKS && e.pair.PlanS.Start < min {
		min = e.pair.PlanS.Start
	}
	for _, tr := range e.packing {
		if tr.Start < min {
			min = tr.Start
		}
	}
	return min
}
