package sim

import (
	"testing"

	"adhocgrid/internal/grid"
	"adhocgrid/internal/rng"
	"adhocgrid/internal/sched"
	"adhocgrid/internal/workload"
)

// buildGreedy constructs a complete schedule by walking the DAG in
// topological order and committing each subtask to the machine with the
// earliest finish, alternating versions for variety.
func buildGreedy(t *testing.T, n int, seed uint64, c grid.Case) *sched.State {
	t.Helper()
	p := workload.DefaultParams(n)
	p.EnergyScale = 1 // keep the greedy builder's focus on structure, not tension
	s, err := workload.Generate(p, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := s.Instantiate(c)
	if err != nil {
		t.Fatal(err)
	}
	st := sched.NewState(inst, sched.NewWeights(0.5, 0.3))
	order, err := s.Graph.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	for k, i := range order {
		v := workload.Secondary
		if k%3 == 0 {
			v = workload.Primary
		}
		best := sched.Plan{}
		bestEnd := int64(-1)
		for j := 0; j < inst.Grid.M(); j++ {
			plan, err := st.PlanCandidate(i, j, v, 0)
			if err != nil {
				continue
			}
			if bestEnd < 0 || plan.End < bestEnd {
				best, bestEnd = plan, plan.End
			}
		}
		if bestEnd < 0 {
			// Fall back to secondary if the primary did not fit anywhere.
			for j := 0; j < inst.Grid.M(); j++ {
				plan, err := st.PlanCandidate(i, j, workload.Secondary, 0)
				if err != nil {
					continue
				}
				if bestEnd < 0 || plan.End < bestEnd {
					best, bestEnd = plan, plan.End
				}
			}
		}
		if bestEnd < 0 {
			t.Fatalf("subtask %d unschedulable", i)
		}
		if err := st.Commit(best); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func TestVerifyCleanSchedule(t *testing.T) {
	for _, c := range grid.AllCases {
		st := buildGreedy(t, 96, 42, c)
		if v := Verify(st); len(v) != 0 {
			t.Fatalf("case %v: clean schedule has violations: %v", c, v)
		}
		if !st.Done() {
			t.Fatalf("case %v: schedule incomplete", c)
		}
	}
}

func TestVerifyCatchesPrecedenceCorruption(t *testing.T) {
	st := buildGreedy(t, 64, 1, grid.CaseA)
	// Move some non-root subtask's start before its parent's end.
	g := st.Inst.Scenario.Graph
	for i := 0; i < st.N(); i++ {
		if len(g.Parents(i)) == 0 {
			continue
		}
		a := st.Assignments[i]
		a.Start = 0
		break
	}
	if v := Verify(st); len(v) == 0 {
		t.Fatal("corrupted precedence not detected")
	}
}

func TestVerifyCatchesOverlapCorruption(t *testing.T) {
	st := buildGreedy(t, 64, 2, grid.CaseA)
	// Force two assignments on the same machine to overlap.
	var first, second *sched.Assignment
	for _, a := range st.Assignments {
		if a == nil {
			continue
		}
		if first == nil {
			first = a
			continue
		}
		if a.Machine == first.Machine && a != first {
			second = a
			break
		}
	}
	if second == nil {
		t.Skip("no two assignments share a machine")
	}
	second.Start = first.Start
	second.End = first.End + 1
	if v := Verify(st); len(v) == 0 {
		t.Fatal("overlap corruption not detected")
	}
}

func TestVerifyCatchesEnergyCorruption(t *testing.T) {
	st := buildGreedy(t, 64, 3, grid.CaseA)
	for _, a := range st.Assignments {
		if a != nil {
			a.ExecEnergy *= 2
			break
		}
	}
	if v := Verify(st); len(v) == 0 {
		t.Fatal("energy corruption not detected")
	}
}

func TestVerifyCatchesAggregateCorruption(t *testing.T) {
	st := buildGreedy(t, 64, 4, grid.CaseA)
	st.T100 += 5
	found := false
	for _, v := range Verify(st) {
		if v.Kind == "aggregate" {
			found = true
		}
	}
	if !found {
		t.Fatal("aggregate corruption not detected")
	}
}

func TestVerifyCompleteFlagsPartial(t *testing.T) {
	s, err := workload.Generate(workload.DefaultParams(32), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	inst, _ := s.Instantiate(grid.CaseA)
	st := sched.NewState(inst, sched.NewWeights(0.5, 0.3))
	if v := VerifyComplete(st); len(v) == 0 {
		t.Fatal("empty schedule passed VerifyComplete")
	}
	if v := Verify(st); len(v) != 0 {
		t.Fatalf("empty schedule has structural violations: %v", v)
	}
}

func TestLoseMachineUnwindsAndStaysValid(t *testing.T) {
	st := buildGreedy(t, 96, 8, grid.CaseA)
	// Lose machine 1 halfway through the schedule.
	lossAt := st.AETCycles / 2
	requeued, err := st.LoseMachine(1, lossAt)
	if err != nil {
		t.Fatal(err)
	}
	if st.Alive(1) {
		t.Fatal("machine still alive after loss")
	}
	// The surviving schedule must be internally consistent.
	if v := Verify(st); len(v) != 0 {
		t.Fatalf("post-loss schedule has violations: %v", v)
	}
	// Requeued subtasks are unmapped and sorted.
	for k, i := range requeued {
		if st.Assignments[i] != nil {
			t.Fatalf("requeued subtask %d still mapped", i)
		}
		if k > 0 && requeued[k-1] >= i {
			t.Fatal("requeued ids not sorted")
		}
	}
	// Nothing on the dead machine may end after the loss.
	for _, a := range st.Assignments {
		if a != nil && a.Machine == 1 && a.End > lossAt {
			t.Fatalf("assignment %d survives on dead machine past loss", a.Subtask)
		}
	}
	// Mapped count is consistent.
	count := 0
	for _, a := range st.Assignments {
		if a != nil {
			count++
		}
	}
	if count != st.Mapped {
		t.Fatalf("Mapped=%d but %d assignments present", st.Mapped, count)
	}
}

func TestLoseMachineEarlyRequeuesEverything(t *testing.T) {
	st := buildGreedy(t, 64, 9, grid.CaseA)
	// Count work on machine 0 before losing it at cycle 0: nothing has
	// completed, so every subtask on machine 0 (and its dependents with
	// pending inputs) must requeue.
	onM0 := 0
	for _, a := range st.Assignments {
		if a != nil && a.Machine == 0 {
			onM0++
		}
	}
	requeued, err := st.LoseMachine(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(requeued) < onM0 {
		t.Fatalf("requeued %d < %d subtasks that were on machine 0", len(requeued), onM0)
	}
	if v := Verify(st); len(v) != 0 {
		t.Fatalf("post-loss schedule has violations: %v", v)
	}
}

func TestLoseMachineLateKeepsCompletedWork(t *testing.T) {
	st := buildGreedy(t, 64, 10, grid.CaseA)
	mappedBefore := st.Mapped
	// Losing a machine after everything finished (and all transfers done)
	// must requeue nothing.
	requeued, err := st.LoseMachine(2, st.AETCycles+1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(requeued) != 0 {
		t.Fatalf("late loss requeued %v", requeued)
	}
	if st.Mapped != mappedBefore {
		t.Fatal("late loss changed mapping")
	}
	if v := Verify(st); len(v) != 0 {
		t.Fatalf("violations after late loss: %v", v)
	}
}

func TestLoseMachineTwiceRejected(t *testing.T) {
	st := buildGreedy(t, 32, 11, grid.CaseA)
	if _, err := st.LoseMachine(1, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoseMachine(1, 20); err == nil {
		t.Fatal("double loss accepted")
	}
	if _, err := st.LoseMachine(99, 10); err == nil {
		t.Fatal("out-of-range loss accepted")
	}
}

func TestPlanRejectsDeadMachine(t *testing.T) {
	s, err := workload.Generate(workload.DefaultParams(32), rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	inst, _ := s.Instantiate(grid.CaseA)
	st := sched.NewState(inst, sched.NewWeights(0.5, 0.3))
	if _, err := st.LoseMachine(0, 0); err != nil {
		t.Fatal(err)
	}
	root := s.Graph.Roots()[0]
	if _, err := st.PlanCandidate(root, 0, workload.Secondary, 0); err == nil {
		t.Fatal("planning on dead machine accepted")
	}
	if st.MachineAvailable(0, 0) {
		t.Fatal("dead machine reported available")
	}
	if st.FeasibleSLRH(root, 0) {
		t.Fatal("dead machine reported feasible")
	}
}
