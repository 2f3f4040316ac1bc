package core

import (
	"testing"

	"adhocgrid/internal/fault"
	"adhocgrid/internal/grid"
	"adhocgrid/internal/sched"
	"adhocgrid/internal/sim"
)

// inflightNear returns a subtask whose execution strictly spans a cycle
// near the hint, and that cycle. It scans assignments in subtask order,
// so the choice is deterministic.
func inflightNear(t *testing.T, st *sched.State, hint int64) (int, int64) {
	t.Helper()
	best, bestAt, bestDist := -1, int64(0), int64(1)<<62
	for i, a := range st.Assignments {
		if a == nil || a.End-a.Start < 2 {
			continue
		}
		mid := a.Start + (a.End-a.Start)/2
		dist := mid - hint
		if dist < 0 {
			dist = -dist
		}
		if dist < bestDist {
			best, bestAt, bestDist = i, mid, dist
		}
	}
	if best < 0 {
		t.Fatal("no assignment long enough to fail mid-flight")
	}
	return best, bestAt
}

// TestFaultPlanChurnRun drives the full event repertoire through one run:
// a transient subtask failure, a machine loss, a link-degradation window,
// and the machine's rejoin. The fail fires before any other disturbance
// and the window opens at the fault-free AET, so the schedule prefix up
// to the failure is identical to the baseline and the chosen subtask is
// guaranteed to be in flight.
func TestFaultPlanChurnRun(t *testing.T) {
	inst := makeInstance(t, 96, 23, grid.CaseA)
	cfg := DefaultConfig(SLRH1, sched.NewWeights(0.3, 0.1))
	base, err := Run(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseAET := base.State.AETCycles

	failTask, failAt := inflightNear(t, base.State, baseAET/3)
	loseAt := baseAET * 2 / 3
	if loseAt <= failAt {
		loseAt = failAt + 1
	}
	rejoinAt := loseAt + 10*cfg.DeltaT
	pl := &fault.Plan{
		Events: []fault.Event{
			{Kind: fault.Fail, At: failAt, Subtask: failTask},
			{Kind: fault.Lose, At: loseAt, Machine: 1},
			{Kind: fault.Rejoin, At: rejoinAt, Machine: 1},
		},
		Windows: []fault.Window{{Start: baseAET, End: inst.TauCycles, Factor: 0.5}},
	}
	pl.Normalize()
	cfg.Faults = pl
	res, err := Run(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultsSkipped != 0 {
		t.Fatalf("FaultsSkipped = %d, want 0 (fail of %d at %d should hit in-flight work)",
			res.FaultsSkipped, failTask, failAt)
	}
	if res.FaultsApplied != 3 {
		t.Fatalf("FaultsApplied = %d, want 3", res.FaultsApplied)
	}
	if res.Requeued == 0 {
		t.Fatal("churn requeued nothing")
	}
	if !res.State.Alive(1) {
		t.Fatal("machine 1 did not rejoin")
	}
	if d := res.State.Downtime(1); len(d) != 1 || d[0].Start != loseAt || d[0].End != rejoinAt {
		t.Fatalf("downtime record %v, want one window [%d,%d)", d, loseAt, rejoinAt)
	}
	if v := sim.VerifyPlan(res.State, pl); len(v) != 0 {
		t.Fatalf("violations after churn: %v", v)
	}
	if !res.Metrics.Complete {
		t.Fatalf("mapping incomplete after churn: %d/%d", res.Metrics.Mapped, inst.Scenario.N())
	}
}

// TestFaultSlowdownStretchesTransfers covers the whole run with a 0.5×
// bandwidth window: every cross-machine transfer must book at least its
// doubled duration and charge the doubled sender energy, and the verifier
// (which recomputes the stretch independently) must agree bit-for-bit.
func TestFaultSlowdownStretchesTransfers(t *testing.T) {
	inst := makeInstance(t, 96, 23, grid.CaseA)
	cfg := DefaultConfig(SLRH1, sched.NewWeights(0.3, 0.1))
	pl := &fault.Plan{Windows: []fault.Window{{Start: 0, End: inst.TauCycles + 1, Factor: 0.5}}}
	cfg.Faults = pl
	res, err := Run(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stretched := 0
	for _, a := range res.State.Assignments {
		if a == nil {
			continue
		}
		for _, tr := range a.Transfers {
			nom := grid.SecondsToCycles(inst.Grid.CommTime(tr.Bits, tr.From, tr.To))
			if tr.End-tr.Start >= 2*nom && nom > 0 {
				stretched++
			}
		}
	}
	if stretched == 0 {
		t.Fatal("no transfer shows the 2x degradation stretch")
	}
	if v := sim.VerifyPlan(res.State, pl); len(v) != 0 {
		t.Fatalf("violations under degradation: %v", v)
	}
}

// TestFaultDeterminism runs the same (seed, scenario, plan) twice and
// requires identical results including the fault counters.
func TestFaultDeterminism(t *testing.T) {
	inst := makeInstance(t, 96, 23, grid.CaseA)
	cfg := DefaultConfig(SLRH3, sched.NewWeights(0.5, 0.3))
	pl, err := fault.ParsePlan("lose:1@8000,slow:links*0.5@[9000,40000],rejoin:1@12000")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = pl
	a, err := Run(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(makeInstance(t, 96, 23, grid.CaseA), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics != b.Metrics || a.Requeued != b.Requeued ||
		a.FaultsApplied != b.FaultsApplied || a.FaultsSkipped != b.FaultsSkipped {
		t.Fatalf("fault runs diverge: %+v/%d/%d/%d vs %+v/%d/%d/%d",
			a.Metrics, a.Requeued, a.FaultsApplied, a.FaultsSkipped,
			b.Metrics, b.Requeued, b.FaultsApplied, b.FaultsSkipped)
	}
}
