package sim

import (
	"testing"

	"adhocgrid/internal/grid"
	"adhocgrid/internal/rng"
	"adhocgrid/internal/sched"
	"adhocgrid/internal/workload"
)

func TestViolationString(t *testing.T) {
	v := Violation{Kind: "energy", Detail: "machine 2 overdrawn"}
	if got := v.String(); got != "energy: machine 2 overdrawn" {
		t.Fatalf("String = %q", got)
	}
}

func TestVerifyCatchesTransferSizeCorruption(t *testing.T) {
	st := buildGreedy(t, 64, 33, grid.CaseA)
	for _, a := range st.Assignments {
		if a == nil || len(a.Transfers) == 0 {
			continue
		}
		a.Transfers[0].Bits *= 3
		if v := Verify(st); len(v) == 0 {
			t.Fatal("transfer size corruption not detected")
		}
		return
	}
	t.Skip("no transfers in schedule")
}

func TestVerifyCatchesTransferRouteCorruption(t *testing.T) {
	st := buildGreedy(t, 64, 34, grid.CaseA)
	for _, a := range st.Assignments {
		if a == nil || len(a.Transfers) == 0 {
			continue
		}
		a.Transfers[0].From = (a.Transfers[0].From + 1) % st.Inst.Grid.M()
		if v := Verify(st); len(v) == 0 {
			t.Fatal("transfer route corruption not detected")
		}
		return
	}
	t.Skip("no transfers in schedule")
}

func TestVerifyCatchesDurationCorruption(t *testing.T) {
	st := buildGreedy(t, 64, 35, grid.CaseB)
	for _, a := range st.Assignments {
		if a == nil {
			continue
		}
		a.End = a.Start + 1 // shorter than the ETC requires
		break
	}
	found := false
	for _, v := range Verify(st) {
		if v.Kind == "duration" {
			found = true
		}
	}
	if !found {
		t.Fatal("duration corruption not detected")
	}
}

func TestCriticalChain(t *testing.T) {
	st := buildGreedy(t, 96, 41, grid.CaseA)
	chain := CriticalChain(st)
	if len(chain) == 0 {
		t.Fatal("empty chain for a non-empty schedule")
	}
	// The chain ends at the AET-defining assignment.
	lastLink := chain[len(chain)-1]
	if lastLink.End != st.AETCycles {
		t.Fatalf("chain ends at %d, AET is %d", lastLink.End, st.AETCycles)
	}
	// Links are contiguous in time (data links account for their
	// transfer wait) and each link's Via is meaningful.
	for k := 1; k < len(chain); k++ {
		if chain[k].Start != chain[k-1].End+chain[k].DataWaitCycles {
			t.Fatalf("chain gap between links %d and %d: %d + wait %d != %d",
				k-1, k, chain[k-1].End, chain[k].DataWaitCycles, chain[k].Start)
		}
		switch chain[k].Via {
		case "machine", "data", "parent":
			if chain[k].Via != "data" && chain[k].DataWaitCycles != 0 {
				t.Fatalf("non-data link %d has wait %d", k, chain[k].DataWaitCycles)
			}
		default:
			t.Fatalf("interior link %d has Via %q", k, chain[k].Via)
		}
	}
	if chain[0].Via != "start" {
		t.Fatalf("origin link Via = %q", chain[0].Via)
	}
}

func TestCriticalChainEmpty(t *testing.T) {
	if chain := CriticalChain(newEmptyState(t)); chain != nil {
		t.Fatalf("empty schedule gave chain %v", chain)
	}
}

// newEmptyState builds a fresh unmapped state for edge cases.
func newEmptyState(t *testing.T) *sched.State {
	t.Helper()
	p := workload.DefaultParams(8)
	s, err := workload.Generate(p, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := s.Instantiate(grid.CaseA)
	if err != nil {
		t.Fatal(err)
	}
	return sched.NewState(inst, sched.NewWeights(0.5, 0.3))
}
