package sched

import (
	"errors"
	"sort"

	"adhocgrid/internal/grid"
	"adhocgrid/internal/workload"
)

// Hot-path pricing failures are pre-allocated sentinels: candidate
// rejection is the common case of the SLRH inner loop (energy guards and
// the deadline check fire for most of the pool at most timesteps), and a
// fmt.Errorf per rejection would dominate steady-state allocations. The
// messages drop the subtask/machine ids; every caller in this repository
// treats these as a skip verdict, not a report.
var (
	errAlreadyMapped  = errors.New("sched: subtask already mapped")
	errUnmappedParent = errors.New("sched: subtask has unmapped parents")
	errMachineLost    = errors.New("sched: machine has been lost")
	errLacksEnergy    = errors.New("sched: machine lacks energy for candidate version")
	errPastTau        = errors.New("sched: candidate would finish past tau")
	errParentUnmapped = errors.New("sched: parent of candidate unmapped")
	errParentStranded = errors.New("sched: parent stranded on lost machine")
	errSenderEnergy   = errors.New("sched: sender machine out of energy for transfer")
)

// Transfer records one scheduled inter-machine communication: the global
// data item a parent sends to a child (§III). Energy is charged to the
// sending machine at rate C(from).
type Transfer struct {
	Parent, Child int     // subtask ids
	From, To      int     // machine ids
	Start, End    int64   // cycles on both the sender's out-link and receiver's in-link
	Bits          float64 // item size actually transmitted
	Energy        float64 // C(From) * transfer seconds
}

// Assignment records one mapped subtask/version pair.
type Assignment struct {
	Subtask    int
	Machine    int
	Version    workload.Version
	Start, End int64 // execution interval, cycles
	ExecEnergy float64
	Transfers  []Transfer // incoming communications booked for this subtask
}

// Plan is a fully-priced tentative assignment produced by PlanCandidate;
// Commit applies it atomically.
type Plan struct {
	Assignment
}

// State is the mutable schedule under construction. It is shared by every
// heuristic (SLRH variants, Max-Max, LRNN repair) so that all of them
// operate under exactly the same resource model.
type State struct {
	Inst *workload.Instance
	Obj  Objective

	Assignments []*Assignment // indexed by subtask; nil while unmapped
	ExecTL      []*Timeline   // per machine: execution unit
	SendTL      []*Timeline   // per machine: outgoing link
	RecvTL      []*Timeline   // per machine: incoming link
	Ledger      *grid.EnergyLedger

	Mapped         int
	T100           int
	AETCycles      int64
	unmappedParent []int          // remaining unmapped parents per subtask
	ready          []int          // sorted ids: unmapped subtasks with all parents mapped
	gen            []uint64       // per machine: bumped whenever its timelines, energy or liveness change
	shrinkEpoch    uint64         // bumped whenever resources grow back (loss/failure unwinding, rejoin)
	deadAt         []int64        // loss cycle per machine; nil or MaxInt64 = alive
	sunk           []float64      // energy spent on work later discarded by a loss or failure
	downtime       [][]Interval   // closed outage windows per machine (loss ... rejoin)
	slowdowns      []LinkSlowdown // static link-degradation windows, set before scheduling

	// Reusable pricing scratch. Pricing entry points are sequential: a
	// State is never priced from two goroutines at once.
	geomScratch CandidateGeom
	bookScratch []tentBooking
	costScratch []machineCost

	// Run-lifetime slabs. Commit interns every assignment and its transfer
	// records here so the pointers handed out stay stable for the whole
	// run while the callers' pricing buffers are reused; Reset rewinds the
	// cursors and the next run reuses the chunks. Chunks are fixed once
	// allocated, never reallocated or shrunk.
	asgChunks [][]Assignment
	asgNext   int // slots handed out across all assignment chunks
	trChunks  [][]Transfer
	trCur     int // chunk the transfer cursor is filling

	commitBook []tentBooking // Commit's rollback scratch (reused per call)
}

// Slab chunk granularity. Assignment chunks are arrays of fixed length;
// transfer chunks are append-only caps (a single assignment's transfer
// list must fit one chunk, so oversized requests get a dedicated chunk).
const (
	asgChunkSize = 256
	trChunkSize  = 256
)

// newAssignment hands out one slab-backed assignment slot. The pointer is
// stable until the next Reset; callers overwrite the whole struct.
func (s *State) newAssignment() *Assignment {
	ci, k := s.asgNext/asgChunkSize, s.asgNext%asgChunkSize
	if ci == len(s.asgChunks) {
		s.asgChunks = append(s.asgChunks, make([]Assignment, asgChunkSize))
	}
	s.asgNext++
	return &s.asgChunks[ci][k]
}

// internTransfers copies ts into the run-lifetime transfer slab and
// returns the stable-backed copy (nil in, nil out — the nil/non-nil
// distinction of placeIncoming is part of the byte-identity contract).
func (s *State) internTransfers(ts []Transfer) []Transfer {
	if ts == nil {
		return nil
	}
	need := len(ts)
	for {
		if s.trCur == len(s.trChunks) {
			size := trChunkSize
			if need > size {
				size = need
			}
			s.trChunks = append(s.trChunks, make([]Transfer, 0, size))
		}
		c := s.trChunks[s.trCur]
		if cap(c)-len(c) >= need {
			out := c[len(c) : len(c)+need : len(c)+need]
			copy(out, ts)
			s.trChunks[s.trCur] = c[:len(c)+need]
			return out
		}
		s.trCur++
	}
}

// grown returns buf resized to n, reusing its backing when the capacity
// allows. Contents are unspecified; callers refill every element.
func grown[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// resetTimelines clears every retained timeline (spare chunk lists
// included in the reuse) and returns the slice resized to m, creating
// timelines only for machines the state has never been this wide for.
func resetTimelines(ts []*Timeline, m int) []*Timeline {
	ts = ts[:cap(ts)]
	for _, t := range ts {
		if t != nil {
			t.Clear()
		}
	}
	if cap(ts) < m {
		nts := make([]*Timeline, m)
		copy(nts, ts)
		ts = nts
	}
	ts = ts[:m]
	for k, t := range ts {
		if t == nil {
			ts[k] = &Timeline{}
		}
	}
	return ts
}

// NewState returns an empty schedule for the instance under objective
// weights w.
func NewState(inst *workload.Instance, w Weights) *State {
	s := &State{}
	s.Reset(inst, w)
	return s
}

// Reset reinitializes the state in place for a fresh run of inst under
// weights w, retaining every reusable backing — timeline chunks, the
// assignment and transfer slabs, the ready list, and the pricing
// scratches — so a reused State runs a whole horizon without touching
// the allocator. The instance may differ from the previous run's;
// slices are resized as needed.
func (s *State) Reset(inst *workload.Instance, w Weights) {
	n := inst.Scenario.N()
	m := inst.Grid.M()
	s.Inst = inst
	s.Obj = NewObjective(w, n, inst.Grid, inst.TauCycles)
	s.Assignments = grown(s.Assignments, n)
	for i := range s.Assignments {
		s.Assignments[i] = nil
	}
	s.ExecTL = resetTimelines(s.ExecTL, m)
	s.SendTL = resetTimelines(s.SendTL, m)
	s.RecvTL = resetTimelines(s.RecvTL, m)
	if s.Ledger == nil {
		s.Ledger = grid.NewEnergyLedger(inst.Grid)
	} else {
		s.Ledger.Reset(inst.Grid)
	}
	s.Mapped, s.T100, s.AETCycles = 0, 0, 0
	s.unmappedParent = grown(s.unmappedParent, n)
	s.ready = s.ready[:0]
	for i := 0; i < n; i++ {
		s.unmappedParent[i] = len(inst.Scenario.Graph.Parents(i))
		if s.unmappedParent[i] == 0 {
			s.ready = append(s.ready, i)
		}
	}
	s.gen = grown(s.gen, m)
	for j := range s.gen {
		s.gen[j] = 0
	}
	s.shrinkEpoch = 0
	// The loss/failure bookkeeping is lazily allocated; when a previous
	// run created it, refill in place (Alive indexes these whenever the
	// slice is non-nil, so lengths must track m exactly).
	if s.deadAt != nil {
		s.deadAt = grown(s.deadAt, m)
		for j := range s.deadAt {
			s.deadAt[j] = aliveForever
		}
	}
	if s.sunk != nil {
		s.sunk = grown(s.sunk, m)
		for j := range s.sunk {
			s.sunk[j] = 0
		}
	}
	if s.downtime != nil {
		s.downtime = grown(s.downtime, m)
		for j := range s.downtime {
			s.downtime[j] = s.downtime[j][:0]
		}
	}
	s.slowdowns = s.slowdowns[:0]
	s.asgNext = 0
	for k := range s.trChunks {
		s.trChunks[k] = s.trChunks[k][:0]
	}
	s.trCur = 0
}

// N returns the number of subtasks.
func (s *State) N() int { return len(s.Assignments) }

// SetWeights replaces the objective weights; subsequent candidate scoring
// uses the new values. Used by the adaptive-multiplier extension.
func (s *State) SetWeights(w Weights) { s.Obj.Weights = w }

// Done reports whether every subtask has been mapped.
func (s *State) Done() bool { return s.Mapped == s.N() }

// Ready reports whether subtask i is unmapped and all its parents are
// mapped — the precedence half of the paper's pool-feasibility test.
func (s *State) Ready(i int) bool {
	return s.Assignments[i] == nil && s.unmappedParent[i] == 0
}

// ReadySet appends all ready subtasks to buf and returns it. Iteration is
// in subtask-id order for determinism. The set is maintained incrementally
// by Commit and LoseMachine, so this is a copy, not a rescan.
func (s *State) ReadySet(buf []int) []int {
	return append(buf[:0], s.ready...)
}

// readyInsert adds subtask i to the ready list, keeping it sorted.
func (s *State) readyInsert(i int) {
	k := sort.SearchInts(s.ready, i)
	if k < len(s.ready) && s.ready[k] == i {
		return
	}
	s.ready = append(s.ready, 0)
	copy(s.ready[k+1:], s.ready[k:])
	s.ready[k] = i
}

// readyRemove drops subtask i from the ready list if present.
func (s *State) readyRemove(i int) {
	k := sort.SearchInts(s.ready, i)
	if k < len(s.ready) && s.ready[k] == i {
		s.ready = append(s.ready[:k], s.ready[k+1:]...)
	}
}

// LinkSlowdown is one timed bandwidth-degradation window: a transfer
// whose link occupancy starts in [Start, End) sees every link at Factor
// times its nominal bandwidth, so it takes 1/Factor times longer and
// costs the sender 1/Factor times the nominal energy. The factor is
// sampled at the transfer's start cycle — that keeps placement a pure
// function of (geometry, timelines, clock), which the plan cache and the
// replay verifier both rely on.
type LinkSlowdown struct {
	Start, End int64
	Factor     float64 // bandwidth multiplier in (0, 1]
}

// SetLinkSlowdowns installs the link-degradation windows for this run.
// Windows are static scheduling inputs: they must be set before any
// candidate is priced or committed, and never changed afterwards (the
// plan cache assumes the stretch function is fixed for the whole run).
func (s *State) SetLinkSlowdowns(ws []LinkSlowdown) {
	s.slowdowns = append(s.slowdowns[:0], ws...)
}

// LinkSlowdowns returns the installed degradation windows. The slice is
// shared with the state and must not be mutated.
func (s *State) LinkSlowdowns() []LinkSlowdown { return s.slowdowns }

// LinkFactorAt returns the bandwidth factor in effect for a transfer
// starting at cycle c: the smallest factor among the windows containing
// c, or 1 when none does.
func (s *State) LinkFactorAt(c int64) float64 {
	f := 1.0
	for _, w := range s.slowdowns {
		if c >= w.Start && c < w.End && w.Factor < f {
			f = w.Factor
		}
	}
	return f
}

// Gen returns machine j's mutation generation. It increases monotonically
// whenever the machine's exec/send/recv timelines, its energy ledger, or
// its liveness change through Commit, LoseMachine or loss unwinding;
// tentative (rolled-back) bookings do not bump it. Plan caches key their
// validity on these counters.
func (s *State) Gen(j int) uint64 { return s.gen[j] }

// bumpGen marks machine j dirty for generation-tracking caches.
func (s *State) bumpGen(j int) { s.gen[j]++ }

// ShrinkEpoch returns the resource-monotonicity epoch. Between two
// observations with the same epoch, every state mutation was a Commit:
// timelines only gained bookings and ledgers only decreased, so a plan
// whose priced slots are still free and whose energy guards still pass
// would be re-priced identically, and an infeasible candidate stays
// infeasible. LoseMachine breaks the monotonicity (it releases bookings
// and refunds energy) and bumps the epoch.
func (s *State) ShrinkEpoch() uint64 { return s.shrinkEpoch }

// FeasibleSLRH implements the paper's §IV pool-feasibility energy test for
// subtask i on machine j: the machine's remaining energy must cover the
// SECONDARY version's execution energy plus the worst-case cost of
// communicating its (secondary) output to every child across the grid's
// lowest-bandwidth link. Precedence readiness is checked separately.
func (s *State) FeasibleSLRH(i, j int) bool {
	if !s.Alive(j) {
		return false
	}
	need := s.Inst.ExecEnergy(i, j, workload.Secondary) +
		s.Inst.WorstChildCommEnergy(i, j, workload.Secondary)
	return s.Ledger.Remaining(j) >= need
}

// FeasibleSLRHOptimistic is the ablation variant of FeasibleSLRH that
// omits the worst-case child-communication reservation (children assumed
// co-located, costing nothing). The paper argues the worst-case
// reservation "was not found to significantly affect the mapping process"
// because communication energy is negligible; BenchmarkAblationCommEnergy
// measures exactly that claim.
func (s *State) FeasibleSLRHOptimistic(i, j int) bool {
	if !s.Alive(j) {
		return false
	}
	return s.Ledger.Remaining(j) >= s.Inst.ExecEnergy(i, j, workload.Secondary)
}

// FeasibleVersion implements the Max-Max variant of the feasibility test
// (§V): each version is assessed independently at its own execution and
// worst-case communication cost.
func (s *State) FeasibleVersion(i, j int, v workload.Version) bool {
	if !s.Alive(j) {
		return false
	}
	need := s.Inst.ExecEnergy(i, j, v) + s.Inst.WorstChildCommEnergy(i, j, v)
	return s.Ledger.Remaining(j) >= need
}

// MachineAvailable reports whether machine j is alive and its execution
// unit is idle at cycle `now` — the paper's per-timestep availability gate.
func (s *State) MachineAvailable(j int, now int64) bool {
	return s.Alive(j) && !s.ExecTL[j].BusyAt(now)
}

// PlanCandidate prices mapping subtask i at version v onto machine j with
// no action scheduled before cycle `now` (the scheduler never looks
// backward in time, §IV). It returns the complete Plan — execution
// interval, all incoming transfers with their link bookings, and energy
// charges — or an error if the candidate cannot be scheduled (unmapped
// parent, sender out of energy, target out of energy for this version, or
// a completion past the deadline).
//
// PlanCandidate does not mutate the state: tentative link bookings made
// while packing multi-parent transfers are rolled back before returning.
func (s *State) PlanCandidate(i, j int, v workload.Version, now int64) (Plan, error) {
	var plan Plan
	if err := s.planChecks(i, j); err != nil {
		return plan, err
	}
	execEnergy, err := s.versionGuard(i, j, v)
	if err != nil {
		return plan, err
	}
	arrival, transfers, err := s.planIncoming(i, j, now)
	if err != nil {
		return plan, err
	}
	return s.finishPlan(i, j, v, execEnergy, arrival, transfers)
}

// PlanCandidateVersions prices both versions of subtask i on machine j in
// one pass. The incoming transfers are identical for the two versions
// (they depend only on the parents' placements), so packing them once
// halves the cost of the SLRH's per-candidate version comparison.
// Each version carries its own error; both plans share the same transfer
// slice contents.
func (s *State) PlanCandidateVersions(i, j int, now int64) (primary Plan, perr error, secondary Plan, serr error) {
	return s.PlanCandidateVersionsBuf(i, j, now, nil)
}

// PlanCandidateVersionsBuf is PlanCandidateVersions with a reusable
// transfer buffer, exactly as in PlanVersionsFromGeom: when buf is
// non-nil the plans' transfers are built in (*buf)[:0] and the grown
// backing is written back through the pointer, making repeated pricing
// allocation-free.
func (s *State) PlanCandidateVersionsBuf(i, j int, now int64, buf *[]Transfer) (primary Plan, perr error, secondary Plan, serr error) {
	if err := s.planChecks(i, j); err != nil {
		return primary, err, secondary, err
	}
	if err := s.FillCandidateGeom(i, j, &s.geomScratch); err != nil {
		return primary, err, secondary, err
	}
	return s.planVersionsFromGeom(i, j, now, &s.geomScratch, buf)
}

// planChecks performs the version-independent candidate checks.
func (s *State) planChecks(i, j int) error {
	if s.Assignments[i] != nil {
		return errAlreadyMapped
	}
	if s.unmappedParent[i] != 0 {
		return errUnmappedParent
	}
	if !s.Alive(j) {
		return errMachineLost
	}
	return nil
}

// versionGuard enforces the DESIGN.md D3 energy guard: executing at v plus
// worst-case child communication must fit machine j's remaining energy.
// It returns the execution energy on success.
func (s *State) versionGuard(i, j int, v workload.Version) (float64, error) {
	execEnergy := s.Inst.ExecEnergy(i, j, v)
	if s.Ledger.Remaining(j) < execEnergy+s.Inst.WorstChildCommEnergy(i, j, v) {
		return 0, errLacksEnergy
	}
	return execEnergy, nil
}

// planIncoming packs subtask i's incoming transfers onto machine j by
// computing the candidate geometry and placing it. Tentative link bookings
// are rolled back before returning, so the state is unchanged. It returns
// the data-arrival cycle and the transfer records.
func (s *State) planIncoming(i, j int, now int64) (int64, []Transfer, error) {
	if err := s.FillCandidateGeom(i, j, &s.geomScratch); err != nil {
		return 0, nil, err
	}
	return s.placeIncoming(i, j, now, &s.geomScratch, nil)
}

// finishPlan places the execution for one version and applies the ongoing
// deadline check (§IV: dynamic solutions "must be checked for constraint
// violation on an ongoing basis"): a candidate whose execution would
// complete after the deadline can never be part of a feasible mapping, so
// it is rejected at planning time. Without this guard the positive-sign
// AET term actively drives both heuristics past τ.
func (s *State) finishPlan(i, j int, v workload.Version, execEnergy float64, arrival int64, transfers []Transfer) (Plan, error) {
	return s.finishPlanDur(i, j, v, execEnergy, s.Inst.ExecCycles(i, j, v), arrival, transfers)
}

// finishPlanDur is finishPlan with the execution duration already known
// (from a cached geometry).
func (s *State) finishPlanDur(i, j int, v workload.Version, execEnergy float64, execDur, arrival int64, transfers []Transfer) (Plan, error) {
	var plan Plan
	execStart := s.ExecTL[j].EarliestFit(arrival, execDur)
	if execStart+execDur > s.Inst.TauCycles {
		return plan, errPastTau
	}
	plan.Assignment = Assignment{
		Subtask: i, Machine: j, Version: v,
		Start: execStart, End: execStart + execDur,
		ExecEnergy: execEnergy,
		Transfers:  transfers,
	}
	return plan, nil
}

// Hypothetical returns the objective value the schedule would have after
// committing plan: T100, TEC and AET updated with the plan's contribution.
func (s *State) Hypothetical(plan *Plan) float64 {
	t100 := s.T100
	if plan.Version == workload.Primary {
		t100++
	}
	tec := s.Ledger.Consumed(s.Inst.Grid) + plan.ExecEnergy
	for _, tr := range plan.Transfers {
		tec += tr.Energy
	}
	aet := s.AETCycles
	if plan.End > aet {
		aet = plan.End
	}
	return s.Obj.Value(t100, tec, grid.CyclesToSeconds(aet))
}

// Objective returns the objective value of the current (partial) mapping.
func (s *State) Objective() float64 {
	return s.Obj.Value(s.T100, s.Ledger.Consumed(s.Inst.Grid), grid.CyclesToSeconds(s.AETCycles))
}

// Commit applies a plan: books the execution interval and all transfer
// intervals, charges execution energy to the target machine and
// communication energy to the sending machines, and updates readiness
// bookkeeping. Commit is atomic: on error the state is unchanged.
//
// The stored assignment and its transfer list are interned copies in the
// state's run-lifetime slabs: callers are free to reuse the plan's
// transfer buffer (the plan cache and the candidate pool do) the moment
// Commit returns.
func (s *State) Commit(plan Plan) error {
	i, j := plan.Subtask, plan.Machine
	if s.Assignments[i] != nil {
		return errAlreadyMapped
	}

	// Charge energy first (cheap to roll back).
	if err := s.Ledger.Charge(j, plan.ExecEnergy); err != nil {
		return err
	}
	charged := 0
	for _, tr := range plan.Transfers {
		if err := s.Ledger.Charge(tr.From, tr.Energy); err != nil {
			s.rollbackCommit(&plan, charged, 0)
			return err
		}
		charged++
	}

	// Book intervals; the rollback scratch is reused across commits.
	booked := s.commitBook[:0]
	for _, tr := range plan.Transfers {
		dur := tr.End - tr.Start
		if dur == 0 {
			continue
		}
		if err := s.SendTL[tr.From].Book(tr.Start, dur); err != nil {
			s.commitBook = booked
			s.rollbackCommit(&plan, charged, len(booked))
			return err
		}
		booked = append(booked, tentBooking{s.SendTL[tr.From], tr.Start, dur})
		if err := s.RecvTL[tr.To].Book(tr.Start, dur); err != nil {
			s.commitBook = booked
			s.rollbackCommit(&plan, charged, len(booked))
			return err
		}
		booked = append(booked, tentBooking{s.RecvTL[tr.To], tr.Start, dur})
	}
	s.commitBook = booked
	if err := s.ExecTL[j].Book(plan.Start, plan.End-plan.Start); err != nil {
		s.rollbackCommit(&plan, charged, len(booked))
		return err
	}

	a := s.newAssignment()
	*a = plan.Assignment
	a.Transfers = s.internTransfers(plan.Transfers)
	s.Assignments[i] = a
	s.Mapped++
	if a.Version == workload.Primary {
		s.T100++
	}
	if a.End > s.AETCycles {
		s.AETCycles = a.End
	}
	s.readyRemove(i)
	for _, c := range s.Inst.Scenario.Graph.Children(i) {
		s.unmappedParent[c]--
		if s.unmappedParent[c] == 0 && s.Assignments[c] == nil {
			s.readyInsert(c)
		}
	}
	// Generation bumps happen only on success: the machine whose exec unit,
	// incoming link and energy the assignment consumed, plus every sender
	// whose outgoing link and energy a transfer used.
	s.bumpGen(j)
	for _, tr := range plan.Transfers {
		s.bumpGen(tr.From)
	}
	return nil
}

// rollbackCommit undoes a partially applied Commit: the first `booked`
// entries of the booking scratch in reverse order, then the execution
// charge and the first `charged` transfer charges.
func (s *State) rollbackCommit(plan *Plan, charged, booked int) {
	for k := booked - 1; k >= 0; k-- {
		b := s.commitBook[k]
		if err := b.tl.Unbook(b.start, b.dur); err != nil {
			panic("sched: rollback unbook failed: " + err.Error())
		}
	}
	s.Ledger.Refund(plan.Machine, plan.ExecEnergy)
	for k := 0; k < charged; k++ {
		s.Ledger.Refund(plan.Transfers[k].From, plan.Transfers[k].Energy)
	}
}

// Metrics summarizes a completed (or partial) schedule.
type Metrics struct {
	Mapped     int
	T100       int
	TEC        float64 // total energy consumed, all machines
	AETSeconds float64 // application execution time
	Objective  float64
	Complete   bool // all subtasks mapped
	MetTau     bool // AET within the deadline
}

// Metrics returns the current schedule metrics.
func (s *State) Metrics() Metrics {
	aet := grid.CyclesToSeconds(s.AETCycles)
	return Metrics{
		Mapped:     s.Mapped,
		T100:       s.T100,
		TEC:        s.Ledger.Consumed(s.Inst.Grid),
		AETSeconds: aet,
		Objective:  s.Objective(),
		Complete:   s.Done(),
		MetTau:     s.AETCycles <= s.Inst.TauCycles,
	}
}

// Feasible reports whether the schedule satisfies the paper's hard
// constraints: complete mapping within both the deadline and energy
// budgets (energy cannot go negative by construction of the ledger).
func (m Metrics) Feasible() bool { return m.Complete && m.MetTau }
