package sched

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"adhocgrid/internal/grid"
	"adhocgrid/internal/rng"
	"adhocgrid/internal/workload"
)

func testInstance(t *testing.T, n int, seed uint64, c grid.Case) *workload.Instance {
	t.Helper()
	s, err := workload.Generate(workload.DefaultParams(n), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	in, err := s.Instantiate(c)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestWeights(t *testing.T) {
	w := NewWeights(0.5, 0.3)
	if math.Abs(w.Gamma-0.2) > 1e-12 {
		t.Fatalf("gamma = %v", w.Gamma)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Weights{0.5, 0.5, 0.5}).Validate(); err == nil {
		t.Fatal("non-normalized weights accepted")
	}
	if err := NewWeights(0.9, 0.9).Validate(); err == nil {
		t.Fatal("negative gamma accepted")
	}
}

func TestObjectiveValue(t *testing.T) {
	g := grid.ForCase(grid.CaseA)
	o := NewObjective(NewWeights(0.5, 0.3), 1024, g, grid.TauCycles(1024))
	// All-primary, zero-energy, full-deadline mapping: 0.5*1 - 0 + 0.2*1.
	if got := o.Value(1024, 0, grid.DefaultTauSeconds); math.Abs(got-0.7) > 1e-9 {
		t.Fatalf("objective = %v, want 0.7", got)
	}
	// Energy term is a penalty.
	if o.Value(0, g.TSE(), 0) >= o.Value(0, 0, 0) {
		t.Fatal("energy term did not penalize")
	}
	// AET term rewards later completion (paper's positive sign).
	if o.Value(0, 0, 100) <= o.Value(0, 0, 0) {
		t.Fatal("AET term did not reward")
	}
}

func TestNewStateInitial(t *testing.T) {
	in := testInstance(t, 64, 1, grid.CaseA)
	st := NewState(in, NewWeights(0.5, 0.3))
	if st.Mapped != 0 || st.T100 != 0 || st.AETCycles != 0 || st.Done() {
		t.Fatal("initial state not empty")
	}
	// Exactly the DAG roots are ready.
	ready := st.ReadySet(nil)
	roots := in.Scenario.Graph.Roots()
	if len(ready) != len(roots) {
		t.Fatalf("ready = %v, roots = %v", ready, roots)
	}
	for k := range roots {
		if ready[k] != roots[k] {
			t.Fatalf("ready = %v, roots = %v", ready, roots)
		}
	}
}

func TestPlanAndCommitRoot(t *testing.T) {
	in := testInstance(t, 64, 2, grid.CaseA)
	st := NewState(in, NewWeights(0.5, 0.3))
	root := in.Scenario.Graph.Roots()[0]
	plan, err := st.PlanCandidate(root, 0, workload.Primary, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Start != 0 {
		t.Fatalf("root start = %d", plan.Start)
	}
	if len(plan.Transfers) != 0 {
		t.Fatal("root has incoming transfers")
	}
	wantDur := in.ExecCycles(root, 0, workload.Primary)
	if plan.End-plan.Start != wantDur {
		t.Fatalf("duration %d, want %d", plan.End-plan.Start, wantDur)
	}
	if err := st.Commit(plan); err != nil {
		t.Fatal(err)
	}
	if st.Mapped != 1 || st.T100 != 1 || st.AETCycles != plan.End {
		t.Fatalf("state after commit: %+v", st.Metrics())
	}
	wantE := in.ExecEnergy(root, 0, workload.Primary)
	if got := st.Ledger.Consumed(in.Grid); math.Abs(got-wantE) > 1e-9 {
		t.Fatalf("energy consumed %v, want %v", got, wantE)
	}
	// Double commit must fail.
	if err := st.Commit(plan); err == nil {
		t.Fatal("double commit accepted")
	}
}

func TestPlanDoesNotMutate(t *testing.T) {
	in := testInstance(t, 64, 3, grid.CaseA)
	st := NewState(in, NewWeights(0.5, 0.3))
	root := in.Scenario.Graph.Roots()[0]
	before := st.Ledger.Remaining(0)
	if _, err := st.PlanCandidate(root, 0, workload.Primary, 0); err != nil {
		t.Fatal(err)
	}
	if st.Ledger.Remaining(0) != before || st.Mapped != 0 {
		t.Fatal("PlanCandidate mutated state")
	}
	for j := 0; j < in.Grid.M(); j++ {
		if st.ExecTL[j].Len() != 0 || st.SendTL[j].Len() != 0 || st.RecvTL[j].Len() != 0 {
			t.Fatal("PlanCandidate left bookings behind")
		}
	}
}

func TestPlanUnreadyRejected(t *testing.T) {
	in := testInstance(t, 64, 4, grid.CaseA)
	st := NewState(in, NewWeights(0.5, 0.3))
	// Find a subtask with parents.
	for i := 0; i < in.Scenario.N(); i++ {
		if len(in.Scenario.Graph.Parents(i)) > 0 {
			if _, err := st.PlanCandidate(i, 0, workload.Primary, 0); err == nil {
				t.Fatal("planning unready subtask accepted")
			}
			return
		}
	}
	t.Fatal("no subtask with parents")
}

func TestChildTransferScheduling(t *testing.T) {
	in := testInstance(t, 64, 5, grid.CaseA)
	st := NewState(in, NewWeights(0.5, 0.3))
	g := in.Scenario.Graph
	// Map a root on machine 0, then its first child on machine 1: the plan
	// must include a transfer starting no earlier than the parent's end.
	var root, child int = -1, -1
	for _, r := range g.Roots() {
		for _, c := range g.Children(r) {
			if len(g.Parents(c)) == 1 {
				root, child = r, c
				break
			}
		}
		if child >= 0 {
			break
		}
	}
	if child < 0 {
		t.Skip("no single-parent child of a root")
	}
	plan, err := st.PlanCandidate(root, 0, workload.Primary, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(plan); err != nil {
		t.Fatal(err)
	}
	cplan, err := st.PlanCandidate(child, 1, workload.Primary, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cplan.Transfers) != 1 {
		t.Fatalf("transfers = %d, want 1", len(cplan.Transfers))
	}
	tr := cplan.Transfers[0]
	if tr.From != 0 || tr.To != 1 || tr.Parent != root || tr.Child != child {
		t.Fatalf("transfer = %+v", tr)
	}
	if tr.Start < plan.End {
		t.Fatalf("transfer starts at %d before parent finishes at %d", tr.Start, plan.End)
	}
	if cplan.Start < tr.End {
		t.Fatalf("child starts at %d before data arrives at %d", cplan.Start, tr.End)
	}
	// Same-machine child: no transfer, starts at parent end or later.
	splan, err := st.PlanCandidate(child, 0, workload.Primary, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(splan.Transfers) != 0 {
		t.Fatal("same-machine plan has transfers")
	}
	if splan.Start < plan.End {
		t.Fatal("same-machine child starts before parent ends")
	}
}

func TestCommitChargesSenderEnergy(t *testing.T) {
	in := testInstance(t, 64, 6, grid.CaseA)
	st := NewState(in, NewWeights(0.5, 0.3))
	g := in.Scenario.Graph
	root := g.Roots()[0]
	if len(g.Children(root)) == 0 {
		t.Skip("root has no children")
	}
	child := g.Children(root)[0]
	if len(g.Parents(child)) != 1 {
		t.Skip("child has multiple parents")
	}
	p0, _ := st.PlanCandidate(root, 0, workload.Primary, 0)
	st.Commit(p0)
	before := st.Ledger.Remaining(0)
	cp, err := st.PlanCandidate(child, 1, workload.Primary, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(cp); err != nil {
		t.Fatal(err)
	}
	wantComm := cp.Transfers[0].Energy
	if got := before - st.Ledger.Remaining(0); math.Abs(got-wantComm) > 1e-9 {
		t.Fatalf("sender charged %v, want %v", got, wantComm)
	}
}

func TestHorizonNeverLooksBackward(t *testing.T) {
	in := testInstance(t, 64, 7, grid.CaseA)
	st := NewState(in, NewWeights(0.5, 0.3))
	root := in.Scenario.Graph.Roots()[0]
	now := int64(500)
	plan, err := st.PlanCandidate(root, 0, workload.Primary, now)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Start < now {
		t.Fatalf("plan start %d before now %d", plan.Start, now)
	}
}

func TestFeasibilityChecks(t *testing.T) {
	in := testInstance(t, 64, 8, grid.CaseB)
	st := NewState(in, NewWeights(0.5, 0.3))
	root := in.Scenario.Graph.Roots()[0]
	if !st.FeasibleSLRH(root, 0) {
		t.Fatal("fresh machine infeasible for secondary")
	}
	// Drain machine 2 (slow, small battery) and verify infeasibility.
	need := in.ExecEnergy(root, 2, workload.Secondary)
	st.Ledger.Charge(2, st.Ledger.Remaining(2)-need/2)
	if st.FeasibleSLRH(root, 2) {
		t.Fatal("drained machine still feasible")
	}
	if _, perr, _, _ := st.PlanCandidateVersions(root, 2, 0); !errors.Is(perr, errLacksEnergy) {
		t.Fatalf("drained machine priced the primary: err=%v, want %v", perr, errLacksEnergy)
	}
}

func TestPlanRejectsEnergyExhaustedTarget(t *testing.T) {
	in := testInstance(t, 64, 9, grid.CaseA)
	st := NewState(in, NewWeights(0.5, 0.3))
	root := in.Scenario.Graph.Roots()[0]
	st.Ledger.Charge(0, st.Ledger.Remaining(0)) // drain machine 0
	if _, err := st.PlanCandidate(root, 0, workload.Secondary, 0); err == nil {
		t.Fatal("plan on drained machine accepted")
	}
}

func TestMachineAvailable(t *testing.T) {
	in := testInstance(t, 64, 10, grid.CaseA)
	st := NewState(in, NewWeights(0.5, 0.3))
	root := in.Scenario.Graph.Roots()[0]
	if !st.MachineAvailable(0, 0) {
		t.Fatal("fresh machine unavailable")
	}
	plan, _ := st.PlanCandidate(root, 0, workload.Primary, 0)
	st.Commit(plan)
	if st.MachineAvailable(0, plan.Start) {
		t.Fatal("machine available during execution")
	}
	if !st.MachineAvailable(0, plan.End) {
		t.Fatal("machine unavailable after execution (half-open interval)")
	}
}

func TestHypotheticalMatchesCommit(t *testing.T) {
	in := testInstance(t, 64, 11, grid.CaseA)
	st := NewState(in, NewWeights(0.5, 0.3))
	root := in.Scenario.Graph.Roots()[0]
	plan, _ := st.PlanCandidate(root, 0, workload.Primary, 0)
	hyp := st.Hypothetical(&plan)
	if err := st.Commit(plan); err != nil {
		t.Fatal(err)
	}
	if got := st.Objective(); math.Abs(got-hyp) > 1e-9 {
		t.Fatalf("hypothetical %v != committed objective %v", hyp, got)
	}
}

func TestMetricsFeasible(t *testing.T) {
	m := Metrics{Complete: true, MetTau: true}
	if !m.Feasible() {
		t.Fatal("complete+met-tau not feasible")
	}
	if (Metrics{Complete: true, MetTau: false}).Feasible() {
		t.Fatal("late schedule feasible")
	}
	if (Metrics{Complete: false, MetTau: true}).Feasible() {
		t.Fatal("incomplete schedule feasible")
	}
}

func TestReadySetProgression(t *testing.T) {
	in := testInstance(t, 32, 12, grid.CaseA)
	st := NewState(in, NewWeights(0.5, 0.3))
	// Greedily map everything on machine 0 in topological order; ready set
	// must shrink to empty and Done must become true.
	order, err := in.Scenario.Graph.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range order {
		if !st.Ready(i) {
			t.Fatalf("subtask %d not ready in topo order", i)
		}
		plan, err := st.PlanCandidate(i, 0, workload.Secondary, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Commit(plan); err != nil {
			t.Fatal(err)
		}
	}
	if !st.Done() {
		t.Fatal("not done after mapping all")
	}
	if len(st.ReadySet(nil)) != 0 {
		t.Fatal("ready set non-empty when done")
	}
	// Single-machine mapping: no transfers anywhere.
	for j := 0; j < in.Grid.M(); j++ {
		if st.SendTL[j].Len() != 0 || st.RecvTL[j].Len() != 0 {
			t.Fatal("single-machine mapping booked links")
		}
	}
	// Executions on machine 0 must not overlap.
	if err := st.ExecTL[0].Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMultiParentTransfersSerializedOnRecvLink(t *testing.T) {
	// Construct a tiny scenario by hand: two roots on different machines
	// feeding one child; the child's two incoming transfers must not
	// overlap on its receive link.
	in := testInstance(t, 64, 13, grid.CaseA)
	g := in.Scenario.Graph
	target := -1
	for i := 0; i < g.N(); i++ {
		if len(g.Parents(i)) >= 2 {
			// All parents must be roots for this test.
			allRoots := true
			for _, p := range g.Parents(i) {
				if len(g.Parents(p)) != 0 {
					allRoots = false
				}
			}
			if allRoots {
				target = i
				break
			}
		}
	}
	if target < 0 {
		t.Skip("no subtask with all-root multi-parents")
	}
	st := NewState(in, NewWeights(0.5, 0.3))
	parents := g.Parents(target)
	for k, p := range parents {
		plan, err := st.PlanCandidate(p, k%2, workload.Primary, 0) // machines 0 and 1
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Commit(plan); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := st.PlanCandidate(target, 2, workload.Primary, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Transfers) != len(parents) {
		t.Fatalf("transfers = %d, want %d", len(plan.Transfers), len(parents))
	}
	for a := 0; a < len(plan.Transfers); a++ {
		for b := a + 1; b < len(plan.Transfers); b++ {
			ta, tb := plan.Transfers[a], plan.Transfers[b]
			if ta.Start < tb.End && tb.Start < ta.End && ta.End > ta.Start && tb.End > tb.Start {
				t.Fatalf("incoming transfers overlap: %+v %+v", ta, tb)
			}
		}
	}
}

func TestPlanCandidateVersionsEquivalence(t *testing.T) {
	in := testInstance(t, 96, 71, grid.CaseA)
	st := NewState(in, NewWeights(0.5, 0.3))
	// Map a few subtasks so candidates have cross-machine parents.
	order, _ := in.Scenario.Graph.TopoOrder()
	for k := 0; k < 40; k++ {
		i := order[k]
		plan, err := st.PlanCandidate(i, k%in.Grid.M(), workload.Secondary, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Commit(plan); err != nil {
			t.Fatal(err)
		}
	}
	now := int64(150)
	for _, i := range st.ReadySet(nil) {
		for j := 0; j < in.Grid.M(); j++ {
			priWant, priErrWant := st.PlanCandidate(i, j, workload.Primary, now)
			secWant, secErrWant := st.PlanCandidate(i, j, workload.Secondary, now)
			pri, priErr, sec, secErr := st.PlanCandidateVersions(i, j, now)
			if (priErr == nil) != (priErrWant == nil) || (secErr == nil) != (secErrWant == nil) {
				t.Fatalf("error mismatch for (%d,%d)", i, j)
			}
			if priErrWant == nil && !reflect.DeepEqual(pri, priWant) {
				t.Fatalf("primary plan mismatch for (%d,%d)", i, j)
			}
			if secErrWant == nil && !reflect.DeepEqual(sec, secWant) {
				t.Fatalf("secondary plan mismatch for (%d,%d)", i, j)
			}
		}
	}
}
