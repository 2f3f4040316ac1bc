package core

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"adhocgrid/internal/fault"
	"adhocgrid/internal/grid"
	"adhocgrid/internal/rng"
	"adhocgrid/internal/sched"
	"adhocgrid/internal/sim"
	"adhocgrid/internal/workload"
)

// referenceRun is the SLRH clock loop of §IV–V written plainly, the
// oracle Run must reproduce exactly. Every pool build prices each
// eligible candidate afresh with PlanCandidateVersions and keeps its
// better version (ties go to the primary); the pool is a plain slice
// sorted by (score desc, subtask asc); a pool entry whose booked slots an
// earlier commit took is re-priced with PlanCandidate before it is
// committed, and SLRH-2 keeps testing the horizon on the start priced
// when its pool was built. Fault firing, the fast-forward once the
// mapping is done, the stall rule, the adaptive update and the Observer
// calls follow Run. It shares no pricing, pool, sort, staleness or commit
// code with run and uses no PlanCache or Arena.
//
// optimisticComm selects the §IV ablation: the pool-feasibility test
// drops the worst-case child-communication energy reservation.
func referenceRun(inst *workload.Instance, cfg Config, optimisticComm bool) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st := sched.NewState(inst, cfg.Weights)
	res := &Result{State: st}
	var events []fault.Event
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		pl := fault.Plan{
			Events:  append([]fault.Event(nil), cfg.Faults.Events...),
			Windows: append([]fault.Window(nil), cfg.Faults.Windows...),
		}
		pl.Normalize()
		if err := pl.Validate(inst.Grid.M(), st.N()); err != nil {
			return nil, err
		}
		events = pl.Events
		var ws []sched.LinkSlowdown
		for _, w := range pl.Windows {
			ws = append(ws, sched.LinkSlowdown{Start: w.Start, End: w.End, Factor: w.Factor})
		}
		if len(ws) > 0 {
			st.SetLinkSlowdowns(ws)
		}
	}
	var lastArrival int64
	for _, a := range inst.Scenario.Arrivals {
		if a > lastArrival {
			lastArrival = a
		}
	}

	next := 0 // first event that has not fired
	for now := int64(0); now <= inst.TauCycles; now += cfg.DeltaT {
		for next < len(events) && events[next].At <= now {
			if err := refFire(st, events[next], res); err != nil {
				return nil, err
			}
			next++
		}
		if st.Done() {
			// Everything is mapped, but a loss before AET still strands
			// work: idle until the activation that fires the next event,
			// or stop when none can.
			if next == len(events) || events[next].At > st.AETCycles {
				break
			}
			for now+cfg.DeltaT < events[next].At {
				now += cfg.DeltaT
			}
			continue
		}
		if cfg.Adaptive != nil {
			st.SetWeights(cfg.Adaptive.Update(st, now))
		}
		res.Timesteps++
		mappedBefore := st.Mapped
		for j := 0; j < inst.Grid.M() && !st.Done(); j++ {
			if !st.MachineAvailable(j, now) {
				continue
			}
			switch cfg.Variant {
			case SLRH1:
				refMapOne(st, refBuildPool(st, j, now, optimisticComm), now, cfg.Horizon, false)
			case SLRH2:
				pool := refBuildPool(st, j, now, optimisticComm)
				for refMapOne(st, pool, now, cfg.Horizon, true) {
				}
			case SLRH3:
				for refMapOne(st, refBuildPool(st, j, now, optimisticComm), now, cfg.Horizon, false) {
				}
			}
		}
		if cfg.Observer != nil {
			cfg.Observer(now, st)
		}
		if st.Mapped == mappedBefore && now >= st.AETCycles && now >= lastArrival && next == len(events) {
			break
		}
	}
	res.Metrics = st.Metrics()
	return res, nil
}

// refFire applies one fault event. A fail event whose subtask has no
// execution in flight at the fault instant is counted as skipped.
func refFire(st *sched.State, ev fault.Event, res *Result) error {
	switch ev.Kind {
	case fault.Lose:
		requeued, err := st.LoseMachine(ev.Machine, ev.At)
		if err != nil {
			return err
		}
		res.Requeued += len(requeued)
	case fault.Rejoin:
		if err := st.RejoinMachine(ev.Machine, ev.At); err != nil {
			return err
		}
	case fault.Fail:
		a := st.Assignments[ev.Subtask]
		if a == nil || ev.At < a.Start || ev.At >= a.End {
			res.FaultsSkipped++
			return nil
		}
		requeued, err := st.FailSubtask(ev.Subtask, ev.At)
		if err != nil {
			return err
		}
		res.Requeued += len(requeued)
	default:
		return fmt.Errorf("unknown fault kind %d", int(ev.Kind))
	}
	res.FaultsApplied++
	return nil
}

// refCand is one pool entry: a subtask, its score, and its plan at the
// better version as priced when the pool was built.
type refCand struct {
	subtask int
	score   float64
	plan    sched.Plan
}

// refPool is the pool U of one machine turn. mapped is st.Mapped at the
// build: until another commit lands, every entry is exactly as priced.
type refPool struct {
	cands  []refCand
	mapped int
}

// refBuildPool prices every ready, arrived, energy-feasible subtask on
// machine j at both versions and sorts the pool.
func refBuildPool(st *sched.State, j int, now int64, optimisticComm bool) *refPool {
	p := &refPool{mapped: st.Mapped}
	for _, i := range st.ReadySet(nil) {
		if st.Inst.ArrivalCycle(i) > now {
			continue
		}
		if optimisticComm {
			// Children assumed co-located: reserve nothing for sending
			// the output.
			if !st.Alive(j) || st.Ledger.Remaining(j) < st.Inst.ExecEnergy(i, j, workload.Secondary) {
				continue
			}
		} else if !st.FeasibleSLRH(i, j) {
			continue
		}
		pri, perr, sec, serr := st.PlanCandidateVersions(i, j, now)
		switch {
		case perr == nil && serr == nil:
			sp, ss := st.Hypothetical(&pri), st.Hypothetical(&sec)
			if sp >= ss {
				p.cands = append(p.cands, refCand{i, sp, pri})
			} else {
				p.cands = append(p.cands, refCand{i, ss, sec})
			}
		case perr == nil:
			p.cands = append(p.cands, refCand{i, st.Hypothetical(&pri), pri})
		case serr == nil:
			p.cands = append(p.cands, refCand{i, st.Hypothetical(&sec), sec})
		}
	}
	sort.Slice(p.cands, func(a, b int) bool {
		x, y := p.cands[a], p.cands[b]
		switch {
		case x.score > y.score:
			return true
		case x.score < y.score:
			return false
		}
		return x.subtask < y.subtask
	})
	return p
}

// refMapOne commits the first pool entry that starts within the horizon
// h of now and reports whether it did. An entry some commit since the
// build has made uncommittable as priced is re-priced first; with
// buildTimeHorizon (SLRH-2) the horizon test still reads the build-time
// start. Entries whose subtask is mapped are spent.
func refMapOne(st *sched.State, p *refPool, now, h int64, buildTimeHorizon bool) bool {
	for _, c := range p.cands {
		if st.Assignments[c.subtask] != nil {
			continue
		}
		plan := c.plan
		if st.Mapped != p.mapped && !refSlotsFree(st, &c.plan) {
			fresh, err := st.PlanCandidate(c.subtask, c.plan.Machine, c.plan.Version, now)
			if err != nil {
				continue
			}
			plan = fresh
		}
		start := plan.Start
		if buildTimeHorizon {
			start = c.plan.Start
		}
		if start-now > h {
			continue
		}
		if st.Commit(plan) == nil {
			return true
		}
	}
	return false
}

// refSlotsFree reports whether every slot the plan books — its
// execution, and each transfer on the sender's and the receiver's link —
// still overlaps no booking.
func refSlotsFree(st *sched.State, p *sched.Plan) bool {
	if !refFree(st.ExecTL[p.Machine], p.Start, p.End) {
		return false
	}
	for _, tr := range p.Transfers {
		if !refFree(st.SendTL[tr.From], tr.Start, tr.End) || !refFree(st.RecvTL[tr.To], tr.Start, tr.End) {
			return false
		}
	}
	return true
}

// refFree reports whether [start, end) overlaps no interval booked on
// tl; an empty span overlaps nothing.
func refFree(tl *sched.Timeline, start, end int64) bool {
	if start >= end {
		return true
	}
	for _, iv := range tl.Intervals() {
		if iv.Start < end && start < iv.End {
			return false
		}
	}
	return true
}

// suiteSeed is exp.DefaultSeed, the seed of every experiment suite (exp
// imports core, so this package's tests cannot).
const suiteSeed = 20040426

// benchSuiteInstance returns scenario (0, dag) of the exp.Bench() suite
// — |T|=96, one ETC matrix × two DAGs — on grid case c.
func benchSuiteInstance(t testing.TB, dag int, c grid.Case) *workload.Instance {
	t.Helper()
	s, err := workload.GenerateSuite(workload.DefaultParams(96), 1, 2, rng.New(suiteSeed))
	if err != nil {
		t.Fatal(err)
	}
	scn, err := s.Scenario(0, dag)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := scn.Instantiate(c)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// seededInstance generates one |T|=n scenario from suiteSeed with the
// default parameters (batteries scaled by n/1024) on grid case c, with a
// Poisson arrival process when arrivals is set.
func seededInstance(t testing.TB, n int, c grid.Case, arrivals bool) *workload.Instance {
	t.Helper()
	p := workload.DefaultParams(n)
	if arrivals {
		p.ArrivalRate = 0.01
	}
	s, err := workload.Generate(p, rng.New(suiteSeed))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := s.Instantiate(c)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// fullFaultPlan is a transient failure, a loss/rejoin churn pair and a
// link-degradation window, timed as fractions of inst's deadline.
func fullFaultPlan(t testing.TB, inst *workload.Instance) *fault.Plan {
	t.Helper()
	tau := inst.TauCycles
	pl, err := fault.ParsePlan(fmt.Sprintf("fail:t%d@%d,lose:1@%d,slow:links*0.5@[%d,%d],rejoin:1@%d",
		inst.Scenario.N()/3, tau/16, tau/8, tau/6, tau, tau/4))
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// outcome is everything a run exposes that the oracle pins: the
// exported schedule, the Result counters, and the Observer's
// (now, Mapped) sequence.
type outcome struct {
	export sched.Export
	counts [4]int // Timesteps, Requeued, FaultsApplied, FaultsSkipped
	steps  [][2]int64
}

// observe runs cfg through run with a recording Observer.
func observe(cfg Config, run func(Config) (*Result, error)) (outcome, error) {
	var o outcome
	cfg.Observer = func(now int64, st *sched.State) {
		o.steps = append(o.steps, [2]int64{now, int64(st.Mapped)})
	}
	res, err := run(cfg)
	if err != nil {
		return o, err
	}
	o.export = res.State.Export()
	o.counts = [4]int{res.Timesteps, res.Requeued, res.FaultsApplied, res.FaultsSkipped}
	return o, nil
}

// assertMatchesReference fails unless Run on a fresh arena and RunArena
// on the reused arena a reproduce referenceRun exactly.
func assertMatchesReference(t testing.TB, inst *workload.Instance, cfg Config, a *Arena, label string) {
	t.Helper()
	want, err := observe(cfg, func(c Config) (*Result, error) { return referenceRun(inst, c, false) })
	if err != nil {
		t.Fatalf("%s: referenceRun: %v", label, err)
	}
	paths := []struct {
		name string
		run  func(Config) (*Result, error)
	}{
		{"fresh arena", func(c Config) (*Result, error) { return Run(inst, c) }},
		{"reused arena", func(c Config) (*Result, error) { return RunArena(inst, c, a) }},
	}
	for _, path := range paths {
		got, err := observe(cfg, path.run)
		if err != nil {
			t.Fatalf("%s (%s): %v", label, path.name, err)
		}
		if got.counts != want.counts {
			t.Fatalf("%s (%s): timesteps/requeued/applied/skipped %v, reference %v",
				label, path.name, got.counts, want.counts)
		}
		if !reflect.DeepEqual(got.steps, want.steps) {
			t.Fatalf("%s (%s): observer (now, mapped) sequences differ", label, path.name)
		}
		if !reflect.DeepEqual(got.export, want.export) {
			t.Fatalf("%s (%s): schedule differs from the reference\n%s",
				label, path.name, firstDifference(got.export, want.export))
		}
	}
}

// firstDifference describes where two exported schedules first differ.
func firstDifference(got, want sched.Export) string {
	for k := 0; k < len(got.Assignments) && k < len(want.Assignments); k++ {
		if !reflect.DeepEqual(got.Assignments[k], want.Assignments[k]) {
			return fmt.Sprintf("run:       %+v\nreference: %+v", got.Assignments[k], want.Assignments[k])
		}
	}
	return fmt.Sprintf("run:       %d assignments %+v\nreference: %d assignments %+v",
		len(got.Assignments), got.Metrics, len(want.Assignments), want.Metrics)
}

// referenceWeights are the canonical experiment weights plus two
// weightings without the energy term, under which equal scores (and so
// the subtask tie-break) are common.
var referenceWeights = []sched.Weights{
	sched.NewWeights(0.5, 0.3),
	sched.NewWeights(1, 0),
	sched.NewWeights(0.5, 0),
}

var variants = []Variant{SLRH1, SLRH2, SLRH3}

// TestRunMatchesReference proves Run (plan cache, struct-of-arrays pool,
// arena reuse) schedule-identical to referenceRun across the Bench()
// suite and every dynamic feature of the loop. One arena serves every
// reused-arena run, so it is also re-targeted across instances.
func TestRunMatchesReference(t *testing.T) {
	a := NewArena()
	t.Run("suite", func(t *testing.T) {
		for _, c := range grid.AllCases {
			for d := 0; d < 2; d++ {
				inst := benchSuiteInstance(t, d, c)
				for _, v := range variants {
					for _, w := range referenceWeights {
						assertMatchesReference(t, inst, DefaultConfig(v, w), a,
							fmt.Sprintf("%v/case%v/dag%d/%v", v, c, d, w))
					}
				}
			}
		}
	})
	t.Run("machine_loss", func(t *testing.T) {
		inst := benchSuiteInstance(t, 0, grid.CaseA)
		pl := &fault.Plan{Events: []fault.Event{
			{Kind: fault.Lose, At: inst.TauCycles / 8, Machine: 1},
			{Kind: fault.Lose, At: inst.TauCycles / 3, Machine: 2},
		}}
		for _, v := range variants {
			cfg := DefaultConfig(v, sched.NewWeights(0.5, 0.3))
			cfg.Faults = pl
			assertMatchesReference(t, inst, cfg, a, v.String()+"/loss")
		}
	})
	t.Run("fault_plan", func(t *testing.T) {
		inst := benchSuiteInstance(t, 0, grid.CaseA)
		pl := fullFaultPlan(t, inst)
		for _, v := range variants {
			cfg := DefaultConfig(v, sched.NewWeights(0.5, 0.3))
			cfg.Faults = pl
			assertMatchesReference(t, inst, cfg, a, v.String()+"/faultplan")
		}
	})
	t.Run("arrivals", func(t *testing.T) {
		inst := seededInstance(t, 96, grid.CaseA, true)
		for _, v := range variants {
			assertMatchesReference(t, inst, DefaultConfig(v, sched.NewWeights(0.5, 0.3)), a, v.String()+"/arrivals")
		}
	})
	t.Run("adaptive", func(t *testing.T) {
		inst := benchSuiteInstance(t, 1, grid.CaseA)
		w := sched.NewWeights(0.5, 0.3)
		for _, v := range variants {
			cfg := DefaultConfig(v, w)
			cfg.Adaptive = NewAdaptiveController(w)
			assertMatchesReference(t, inst, cfg, a, v.String()+"/adaptive")
			cfg.Faults = fullFaultPlan(t, inst)
			assertMatchesReference(t, inst, cfg, a, v.String()+"/adaptive+faults")
		}
	})
	t.Run("clock", func(t *testing.T) {
		inst := benchSuiteInstance(t, 0, grid.CaseB)
		for _, v := range variants {
			for _, dt := range []int64{1, 100} {
				for _, h := range []int64{0, 1000, math.MaxInt64} {
					cfg := DefaultConfig(v, sched.NewWeights(0.5, 0.3))
					cfg.DeltaT, cfg.Horizon = dt, h
					assertMatchesReference(t, inst, cfg, a, fmt.Sprintf("%v/dt%d/h%d", v, dt, h))
				}
			}
		}
	})
	t.Run("n256", func(t *testing.T) {
		inst := seededInstance(t, 256, grid.CaseA, false)
		for _, v := range variants {
			assertMatchesReference(t, inst, DefaultConfig(v, sched.NewWeights(0.5, 0.3)), a, v.String()+"/n256")
		}
	})
}

// FuzzRunVsReference drives the same comparison over fuzzer-chosen
// runs: seed and |T| ≤ 96, grid case, variant, ΔT ∈ [1, 100], H ∈
// [0, 1000] or MaxInt64, no faults / one loss / the full fault plan,
// adaptive weights and an arrival process on or off, and one of the
// reference weightings.
func FuzzRunVsReference(f *testing.F) {
	f.Add(uint64(1), uint8(46), uint8(0), uint8(0), uint8(9), uint16(100), uint8(0), false, false, uint8(0))
	f.Add(uint64(7), uint8(94), uint8(1), uint8(1), uint8(0), uint16(1001), uint8(1), true, false, uint8(1))
	f.Add(uint64(42), uint8(62), uint8(2), uint8(2), uint8(99), uint16(0), uint8(2), false, true, uint8(2))
	f.Add(uint64(3), uint8(78), uint8(0), uint8(1), uint8(4), uint16(40), uint8(2), true, true, uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, n, c, variant, dt uint8, h uint16, faults uint8, adaptive, arrivals bool, w uint8) {
		size := 2 + int(n)%95
		p := workload.DefaultParams(size)
		if arrivals {
			p.ArrivalRate = 0.01
		}
		s, err := workload.Generate(p, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		inst, err := s.Instantiate(grid.AllCases[int(c)%len(grid.AllCases)])
		if err != nil {
			t.Fatal(err)
		}
		weights := referenceWeights[int(w)%len(referenceWeights)]
		cfg := DefaultConfig(variants[int(variant)%len(variants)], weights)
		cfg.DeltaT = 1 + int64(dt)%100
		cfg.Horizon = int64(h % 1002)
		if cfg.Horizon == 1001 {
			cfg.Horizon = math.MaxInt64
		}
		switch faults % 3 {
		case 1:
			cfg.Faults = lossPlan(inst.TauCycles/8, 1)
		case 2:
			cfg.Faults = fullFaultPlan(t, inst)
		}
		if adaptive {
			cfg.Adaptive = NewAdaptiveController(weights)
		}
		label := fmt.Sprintf("seed=%d n=%d %v dt=%d h=%d faults=%d adaptive=%v arrivals=%v w=%v",
			seed, size, cfg.Variant, cfg.DeltaT, cfg.Horizon, faults%3, adaptive, arrivals, weights)
		if _, err := referenceRun(inst, cfg, false); err != nil {
			// A plan the instance cannot host (say, a rejoin before its
			// loss on a tiny deadline) must be rejected by Run as well.
			if _, rerr := Run(inst, cfg); rerr == nil {
				t.Fatalf("%s: referenceRun rejected the run (%v), Run accepted it", label, err)
			}
			return
		}
		assertMatchesReference(t, inst, cfg, NewArena(), label)
	})
}

// TestOptimisticCommConfig runs the §IV communication-energy ablation:
// the reference loop without the worst-case child-communication
// reservation must still build a valid schedule, and — the paper's
// claim that communication energy is negligible — its T100 must stay
// within 5 of the conservative Run's.
func TestOptimisticCommConfig(t *testing.T) {
	inst := makeInstance(t, 96, 59, grid.CaseA)
	cfg := DefaultConfig(SLRH1, sched.NewWeights(0.5, 0.3))
	res, err := referenceRun(inst, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if v := sim.Verify(res.State); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	base, err := Run(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	diff := res.Metrics.T100 - base.Metrics.T100
	if diff < -5 || diff > 5 {
		t.Fatalf("comm-energy reservation changed T100 by %d", diff)
	}
}

// BenchmarkAblationCommEnergy compares the worst-case child-communication
// energy reservation (Run) against the optimistic variant that reserves
// nothing (referenceRun with optimisticComm). The paper claims the
// conservative choice costs nothing because comm energy is negligible;
// the reported T100 pair measures that claim. ns/op is dominated by the
// reference loop's fresh pricing.
func BenchmarkAblationCommEnergy(b *testing.B) {
	inst := seededInstance(b, 192, grid.CaseA, false)
	cfg := DefaultConfig(SLRH1, sched.NewWeights(0.5, 0.3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rw, err := Run(inst, cfg)
		if err != nil {
			b.Fatal(err)
		}
		ro, err := referenceRun(inst, cfg, true)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rw.Metrics.T100), "T100-worstcase")
		b.ReportMetric(float64(ro.Metrics.T100), "T100-optimistic")
	}
}
