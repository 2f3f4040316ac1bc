package sched

import (
	"fmt"
	"reflect"
	"testing"

	"adhocgrid/internal/grid"
	"adhocgrid/internal/rng"
	"adhocgrid/internal/workload"
)

// freshPair prices (i, j) from scratch, the answer PlanCache.Pair must
// reproduce.
func freshPair(st *State, i, j int, now int64) PlanPair {
	p, perr, s, serr := st.PlanCandidateVersions(i, j, now)
	return PlanPair{PlanP: p, PlanS: s, OKP: perr == nil, OKS: serr == nil}
}

// TestPlanCacheMatchesFreshPricing drives a state through random commits,
// clock advances, machine losses and rejoins (which bump the shrink
// epoch) and transient failures, and after every mutation requires the
// cache's answer for every ready (i, j) — both plans, transfer contents
// and verdicts — to equal fresh pricing. Scaled and nearly empty
// batteries and a tight deadline make the energy (target and sender)
// and τ verdicts flip during the run. One cache serves every run, Reset
// in between, the way an arena reuses it.
func TestPlanCacheMatchesFreshPricing(t *testing.T) {
	pc := NewPlanCache(0, 0)
	for _, energyScale := range []float64{0, 0.01} {
		for _, tauScale := range []float64{1, 0.25} {
			for _, c := range grid.AllCases {
				for seed := uint64(1); seed <= 6; seed++ {
					label := fmt.Sprintf("energy=%g/tau=%g/case%v/seed=%d", energyScale, tauScale, c, seed)
					runPlanCacheProperty(t, pc, label, 64, seed, c, energyScale, tauScale)
				}
			}
		}
	}
}

// runPlanCacheProperty runs one random mutation sequence: odd seeds mix
// in losses, rejoins and failures; even seeds stay in one shrink epoch,
// the Max-Max regime. Seeds divisible by three add a link-degradation
// window over part of the horizon.
func runPlanCacheProperty(t *testing.T, pc *PlanCache, label string, n int, seed uint64, c grid.Case, energyScale, tauScale float64) {
	p := workload.DefaultParams(n)
	p.EnergyScale = energyScale
	p.TauScale = tauScale
	scn, err := workload.Generate(p, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := scn.Instantiate(c)
	if err != nil {
		t.Fatal(err)
	}
	m := inst.Grid.M()
	st := NewState(inst, NewWeights(0.5, 0.3))
	if seed%3 == 0 {
		tau := inst.TauCycles
		st.SetLinkSlowdowns([]LinkSlowdown{{Start: tau / 16, End: tau / 4, Factor: 0.5}})
	}
	pc.Reset(n, m)
	r := rng.New(seed ^ 0x5eed)
	var now int64
	var ready []int
	check := func(step int, what string) {
		t.Helper()
		ready = st.ReadySet(ready)
		for _, i := range ready {
			for j := 0; j < m; j++ {
				got, want := *pc.Pair(st, i, j, now), freshPair(st, i, j, now)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: step %d (%s), now=%d: Pair(%d, %d) differs from fresh pricing\ncached: %+v\nfresh:  %+v",
						label, step, what, now, i, j, got, want)
				}
			}
		}
	}
	check(0, "initial")
	for step := 1; step <= 600 && !st.Done(); step++ {
		var what string
		k := r.Intn(100)
		if seed%2 == 0 && k >= 5 && k < 13 {
			k = 99 // even seeds stay in one epoch: commits and clock only
		}
		switch {
		case k < 5:
			now += int64(r.Intn(2000))
			what = "clock"
		case k < 7:
			j := r.Intn(m)
			if !st.Alive(j) {
				continue
			}
			if _, err := st.LoseMachine(j, now); err != nil {
				t.Fatalf("%s: LoseMachine: %v", label, err)
			}
			what = "lose"
		case k < 11:
			j := r.Intn(m)
			if st.Alive(j) {
				continue
			}
			if err := st.RejoinMachine(j, now); err != nil {
				t.Fatalf("%s: RejoinMachine: %v", label, err)
			}
			what = "rejoin"
		case k < 13:
			// Fail a random assignment that has not finished yet,
			// advancing the clock to its start if need be.
			i := r.Intn(n)
			a := st.Assignments[i]
			if a == nil || a.End <= now {
				continue
			}
			if a.Start > now {
				now = a.Start
			}
			if _, err := st.FailSubtask(i, now); err != nil {
				t.Fatalf("%s: FailSubtask: %v", label, err)
			}
			what = "fail"
		default:
			// Commit straight out of the cache entry, the way Max-Max
			// does, so Commit's interning of aliased transfers is covered.
			ready = st.ReadySet(ready)
			if len(ready) == 0 {
				continue
			}
			i, j := ready[r.Intn(len(ready))], r.Intn(m)
			pair := pc.Pair(st, i, j, now)
			plan, ok := &pair.PlanP, pair.OKP
			if !ok || r.Intn(2) == 1 && pair.OKS {
				plan, ok = &pair.PlanS, pair.OKS
			}
			if !ok {
				continue
			}
			if err := st.Commit(*plan); err != nil {
				t.Fatalf("%s: Commit: %v", label, err)
			}
			what = "commit"
		}
		check(step, what)
	}
}

// TestPlanCacheRepricesTauVerdicts pins that a τ verdict is re-derived
// rather than trusted. Incoming transfers are packed greedily in parent
// order, so the arrival is not monotone in the bookings or in the clock:
// pushing the first (shorter) transfer past an in-link booking can let
// the second take the hole in front of it, and the data arrive earlier.
// The candidate's two versions first both miss τ; then a commit that
// touches only the first sender, or a one-cycle clock advance, lets one
// of them meet it.
func TestPlanCacheRepricesTauVerdicts(t *testing.T) {
	const x = 2 // length of the blocking in-link booking
	t.Run("commit", func(t *testing.T) {
		pk := newPackingCase(t)
		st, i, j, t0, d1, d2 := pk.st, pk.i, pk.j, pk.t0, pk.d1, pk.d2
		// Second transfer (from b) cannot fit between the first and the
		// booking, so it waits behind it: arrival t0+2·d2+x.
		if err := st.RecvTL[j].Book(t0+d2, x); err != nil {
			t.Fatal(err)
		}
		st.Inst.TauCycles = t0 + d2 + x + d1 + pk.minExec
		pc := NewPlanCache(st.N(), st.Inst.Grid.M())
		if got := *pc.Pair(st, i, j, t0); got.OKP || got.OKS {
			t.Fatalf("setup: candidate meets τ before the commit: %+v", got)
		}
		// A commit elsewhere books a's out-link over the first transfer's
		// slot, for a transfer a→c. The first transfer moves behind the
		// in-link booking and the second fits in front of it: arrival
		// t0+d2+x+d1. Only a's generation moves.
		k := pk.unmappedOtherThan(i)
		l := d2 - d1 + 1
		plan := Plan{Assignment{
			Subtask: k, Machine: pk.c, Version: workload.Secondary,
			Start: t0 + l, End: t0 + l + 1,
			Transfers: []Transfer{{Parent: pk.p1, Child: k, From: pk.a, To: pk.c, Start: t0, End: t0 + l}},
		}}
		if err := st.Commit(plan); err != nil {
			t.Fatal(err)
		}
		want := freshPair(st, i, j, t0)
		if !want.OKP && !want.OKS {
			t.Fatalf("setup: no version meets τ after the commit")
		}
		if got := *pc.Pair(st, i, j, t0); !reflect.DeepEqual(got, want) {
			t.Fatalf("Pair after the commit differs from fresh pricing\ncached: %+v\nfresh:  %+v", got, want)
		}
	})
	t.Run("clock", func(t *testing.T) {
		pk := newPackingCase(t)
		st, i, j, t0, d1, d2 := pk.st, pk.i, pk.j, pk.t0, pk.d1, pk.d2
		// At now=t0 the first transfer takes [t0, t0+d1) right before an
		// out-link booking on a, and the second waits behind the in-link
		// booking at r. One cycle later the first no longer fits before
		// a's booking and lands behind the in-link one, and the second
		// takes [t0+1, r).
		r := t0 + 1 + d2
		if err := st.SendTL[pk.a].Book(t0+d1, r-t0-d1); err != nil {
			t.Fatal(err)
		}
		if err := st.RecvTL[j].Book(r, x); err != nil {
			t.Fatal(err)
		}
		st.Inst.TauCycles = r + x + d1 + pk.minExec
		pc := NewPlanCache(st.N(), st.Inst.Grid.M())
		if got := *pc.Pair(st, i, j, t0); got.OKP || got.OKS {
			t.Fatalf("setup: candidate meets τ at now=t0: %+v", got)
		}
		want := freshPair(st, i, j, t0+1)
		if !want.OKP && !want.OKS {
			t.Fatalf("setup: no version meets τ one cycle later")
		}
		if got := *pc.Pair(st, i, j, t0+1); !reflect.DeepEqual(got, want) {
			t.Fatalf("Pair after the clock advance differs from fresh pricing\ncached: %+v\nfresh:  %+v", got, want)
		}
	})
}

// packingCase is a candidate i on machine j with exactly two incoming
// transfers: from parent p1 on machine a (d1 cycles), then from a parent
// on machine b (d2 > d1 cycles). Every parent is a root and has finished
// by cycle t0, and machine c is idle.
type packingCase struct {
	st             *State
	i, j, a, c, p1 int
	t0, d1, d2     int64
	minExec        int64 // shorter of i's two execution durations on j
}

func newPackingCase(t *testing.T) packingCase {
	t.Helper()
	inst := testInstance(t, 64, 13, grid.CaseA)
	const a, b, j, c = 0, 1, 2, 3
	if inst.Grid.M() <= c {
		t.Fatalf("grid has %d machines, need %d", inst.Grid.M(), c+1)
	}
	g := inst.Scenario.Graph
	for i := 0; i < g.N(); i++ {
		ps := g.Parents(i)
		if len(ps) < 2 {
			continue
		}
		roots := true
		for _, p := range ps {
			roots = roots && len(g.Parents(p)) == 0
		}
		if !roots {
			continue
		}
		// The first two parents send from a and b; any others run on j.
		st := NewState(inst, NewWeights(0.5, 0.3))
		var t0 int64
		for k, p := range ps {
			m := j
			if k < 2 {
				m = []int{a, b}[k]
			}
			plan, err := st.PlanCandidate(p, m, workload.Primary, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Commit(plan); err != nil {
				t.Fatal(err)
			}
			if plan.End > t0 {
				t0 = plan.End
			}
		}
		var geom CandidateGeom
		if err := st.FillCandidateGeom(i, j, &geom); err != nil {
			t.Fatal(err)
		}
		d1, d2 := geom.Transfers[0].Dur, geom.Transfers[1].Dur
		if d1 < 2 || d1 >= d2 {
			continue
		}
		minExec := geom.ExecDur[0]
		if geom.ExecDur[1] < minExec {
			minExec = geom.ExecDur[1]
		}
		return packingCase{st: st, i: i, j: j, a: a, c: c, p1: ps[0], t0: t0, d1: d1, d2: d2, minExec: minExec}
	}
	t.Fatal("no subtask with two root parents whose first transfer is the shorter")
	return packingCase{}
}

// unmappedOtherThan returns some unmapped subtask other than i.
func (pk packingCase) unmappedOtherThan(i int) int {
	for k, a := range pk.st.Assignments {
		if a == nil && k != i {
			return k
		}
	}
	panic("every other subtask is mapped")
}

// TestPlanCacheUnderLinkSlowdown pins that a degradation window turns
// revalidation off. A transfer's duration is sampled at its candidate
// start, so the slot search can try a stretched duration first: here
// the first transfer, asked for from inside the window, lands just
// after it at its nominal duration. A later commit that books a's
// out-link right behind that slot leaves the slot free, yet fresh
// pricing no longer finds it — the stretched probe no longer fits there.
func TestPlanCacheUnderLinkSlowdown(t *testing.T) {
	pk := newPackingCase(t)
	st, i, j, t0, d1, d2 := pk.st, pk.i, pk.j, pk.t0, pk.d1, pk.d2
	w := 3 * d2 // the window outlasts the second, stretched transfer
	st.SetLinkSlowdowns([]LinkSlowdown{{Start: t0, End: t0 + w, Factor: 0.5}})
	if err := st.SendTL[pk.a].Book(t0, w); err != nil {
		t.Fatal(err)
	}
	pc := NewPlanCache(st.N(), st.Inst.Grid.M())
	before := *pc.Pair(st, i, j, t0)
	if !before.OKS || before.PlanS.Transfers[0].Start != t0+w || before.PlanS.Transfers[0].End != t0+w+d1 {
		t.Fatalf("setup: first transfer not at its nominal duration right after the window: %+v", before)
	}
	k := pk.unmappedOtherThan(i)
	s := t0 + w + d1
	plan := Plan{Assignment{
		Subtask: k, Machine: pk.c, Version: workload.Secondary,
		Start: s + 1, End: s + 2,
		Transfers: []Transfer{{Parent: pk.p1, Child: k, From: pk.a, To: pk.c, Start: s, End: s + 1}},
	}}
	if err := st.Commit(plan); err != nil {
		t.Fatal(err)
	}
	want := freshPair(st, i, j, t0)
	if reflect.DeepEqual(want, before) {
		t.Fatalf("setup: the commit did not move fresh pricing")
	}
	if got := *pc.Pair(st, i, j, t0); !reflect.DeepEqual(got, want) {
		t.Fatalf("Pair after the commit differs from fresh pricing\ncached: %+v\nfresh:  %+v", got, want)
	}
}
