// Package sim independently verifies schedules produced by the heuristics
// by replaying them against the paper's resource model (§III assumptions
// (a)–(d)). It shares no booking logic with package sched: every
// constraint is re-derived from the assignment records alone, so a bug in
// the construction substrate cannot hide itself.
package sim

import (
	"fmt"
	"math"
	"sort"

	"adhocgrid/internal/fault"
	"adhocgrid/internal/grid"
	"adhocgrid/internal/sched"
	"adhocgrid/internal/workload"
)

// Violation describes one broken constraint found during verification.
type Violation struct {
	Kind   string // short category, e.g. "precedence", "energy"
	Detail string
}

func (v Violation) String() string { return v.Kind + ": " + v.Detail }

func violatef(out *[]Violation, kind, format string, args ...interface{}) {
	*out = append(*out, Violation{Kind: kind, Detail: fmt.Sprintf(format, args...)})
}

const energyTol = 1e-6

// Verify replays the schedule in st and returns every constraint violation
// found (empty means the schedule is valid). Checked properties:
//
//   - precedence: a mapped subtask's parents are mapped; cross-machine
//     dependencies have a recorded transfer that starts no earlier than the
//     parent's completion and ends no later than the child's start;
//     same-machine dependencies satisfy start >= parent end;
//   - resources: per machine, executions do not overlap (§III (b));
//     outgoing transfers do not overlap and incoming transfers do not
//     overlap (one send + one receive at a time, §III (c));
//   - quantities: execution durations cover ETC at the recorded version;
//     transfer durations cover bits * CMT; transfer sizes match the
//     parent's version-scaled data item;
//   - energy: per machine, execution + transmission energy never exceeds
//     the battery, and matches the state's ledger;
//   - aggregates: T100, Mapped, AET agree with the state's counters.
func Verify(st *sched.State) []Violation {
	var out []Violation
	inst := st.Inst
	graph := inst.Scenario.Graph
	n := st.N()
	m := inst.Grid.M()

	type span struct {
		start, end int64
		what       string
	}
	execSpans := make([][]span, m)
	sendSpans := make([][]span, m)
	recvSpans := make([][]span, m)
	energyUsed := make([]float64, m)

	mapped, t100 := 0, 0
	var aet int64

	for i := 0; i < n; i++ {
		a := st.Assignments[i]
		if a == nil {
			continue
		}
		mapped++
		if a.Version == workload.Primary {
			t100++
		}
		if a.End > aet {
			aet = a.End
		}
		if a.Subtask != i {
			violatef(&out, "record", "assignment at index %d records subtask %d", i, a.Subtask)
		}
		if a.Machine < 0 || a.Machine >= m {
			violatef(&out, "record", "subtask %d on invalid machine %d", i, a.Machine)
			continue
		}

		// Execution duration must cover the version-scaled ETC.
		wantDur := inst.ExecCycles(i, a.Machine, a.Version)
		if a.End-a.Start < wantDur {
			violatef(&out, "duration", "subtask %d exec [%d,%d) shorter than ETC %d cycles",
				i, a.Start, a.End, wantDur)
		}
		wantE := inst.ExecEnergy(i, a.Machine, a.Version)
		if math.Abs(a.ExecEnergy-wantE) > energyTol {
			violatef(&out, "energy", "subtask %d exec energy %v, want %v", i, a.ExecEnergy, wantE)
		}
		execSpans[a.Machine] = append(execSpans[a.Machine],
			span{a.Start, a.End, fmt.Sprintf("subtask %d", i)})
		energyUsed[a.Machine] += a.ExecEnergy

		// Precedence and data movement.
		transferByParent := make(map[int]*sched.Transfer, len(a.Transfers))
		for k := range a.Transfers {
			tr := &a.Transfers[k]
			if tr.Child != i {
				violatef(&out, "record", "subtask %d holds transfer for child %d", i, tr.Child)
			}
			transferByParent[tr.Parent] = tr
		}
		for _, p := range graph.Parents(i) {
			pa := st.Assignments[p]
			if pa == nil {
				violatef(&out, "precedence", "subtask %d mapped before parent %d", i, p)
				continue
			}
			if pa.Machine == a.Machine {
				if a.Start < pa.End {
					violatef(&out, "precedence", "subtask %d starts %d before same-machine parent %d ends %d",
						i, a.Start, p, pa.End)
				}
				if tr, ok := transferByParent[p]; ok {
					violatef(&out, "record", "same-machine dependency %d->%d has a transfer %+v", p, i, tr)
				}
				continue
			}
			tr, ok := transferByParent[p]
			if !ok {
				violatef(&out, "precedence", "cross-machine dependency %d->%d has no transfer", p, i)
				continue
			}
			if tr.From != pa.Machine || tr.To != a.Machine {
				violatef(&out, "record", "transfer %d->%d routes %d->%d, want %d->%d",
					p, i, tr.From, tr.To, pa.Machine, a.Machine)
			}
			if tr.Start < pa.End {
				violatef(&out, "precedence", "transfer %d->%d starts %d before parent ends %d",
					p, i, tr.Start, pa.End)
			}
			if a.Start < tr.End {
				violatef(&out, "precedence", "subtask %d starts %d before its input arrives %d",
					i, a.Start, tr.End)
			}
			// Size must be the parent's version-scaled output item.
			k := inst.ChildIndex(p, i)
			wantBits := inst.OutBits(p, k, pa.Version)
			if math.Abs(tr.Bits-wantBits) > 1e-6 {
				violatef(&out, "data", "transfer %d->%d carries %v bits, want %v", p, i, tr.Bits, wantBits)
			}
			// A transfer that starts inside a link-degradation window is
			// slower and costlier by the window's factor. The operation
			// order mirrors sched.stretchComm exactly (divide the nominal
			// seconds and energy, then round), so fault-free schedules and
			// degraded ones alike must match bit-for-bit.
			wantSec := inst.Grid.CommTime(tr.Bits, tr.From, tr.To)
			wantTE := inst.Grid.Machines[tr.From].CommRate * wantSec
			if f := st.LinkFactorAt(tr.Start); f < 1 {
				wantSec /= f
				wantTE /= f
			}
			wantCyc := grid.SecondsToCycles(wantSec)
			if tr.End-tr.Start < wantCyc {
				violatef(&out, "duration", "transfer %d->%d booked %d cycles, needs %d",
					p, i, tr.End-tr.Start, wantCyc)
			}
			if math.Abs(tr.Energy-wantTE) > energyTol {
				violatef(&out, "energy", "transfer %d->%d energy %v, want %v", p, i, tr.Energy, wantTE)
			}
			if tr.End > tr.Start {
				sendSpans[tr.From] = append(sendSpans[tr.From],
					span{tr.Start, tr.End, fmt.Sprintf("transfer %d->%d", p, i)})
				recvSpans[tr.To] = append(recvSpans[tr.To],
					span{tr.Start, tr.End, fmt.Sprintf("transfer %d->%d", p, i)})
			}
			energyUsed[tr.From] += tr.Energy
		}
		// Transfers must correspond to real dependencies.
		for k := range a.Transfers {
			tr := &a.Transfers[k]
			found := false
			for _, p := range graph.Parents(i) {
				if p == tr.Parent {
					found = true
					break
				}
			}
			if !found {
				violatef(&out, "record", "subtask %d has transfer from non-parent %d", i, tr.Parent)
			}
		}
	}

	// Resource exclusivity per machine.
	checkSpans := func(kind string, machine int, spans []span) {
		sort.Slice(spans, func(a, b int) bool { return spans[a].start < spans[b].start })
		for k := 1; k < len(spans); k++ {
			if spans[k].start < spans[k-1].end {
				violatef(&out, "overlap", "machine %d %s: %s [%d,%d) overlaps %s [%d,%d)",
					machine, kind,
					spans[k-1].what, spans[k-1].start, spans[k-1].end,
					spans[k].what, spans[k].start, spans[k].end)
			}
		}
	}
	for j := 0; j < m; j++ {
		checkSpans("exec", j, execSpans[j])
		checkSpans("send", j, sendSpans[j])
		checkSpans("recv", j, recvSpans[j])
	}

	// Energy budgets and ledger agreement. Dead machines are exempt from
	// ledger agreement (their charges froze at loss time) but must still
	// never have exceeded their battery.
	for j := 0; j < m; j++ {
		batt := inst.Grid.Machines[j].Battery
		total := energyUsed[j] + st.SunkEnergy(j)
		if total > batt+energyTol {
			violatef(&out, "energy", "machine %d consumed %v (incl. %v sunk), battery %v",
				j, total, st.SunkEnergy(j), batt)
		}
		if st.Alive(j) {
			ledgerUsed := batt - st.Ledger.Remaining(j)
			if math.Abs(ledgerUsed-total) > 1e-3 {
				violatef(&out, "ledger", "machine %d ledger says %v consumed, replay says %v live + %v sunk",
					j, ledgerUsed, energyUsed[j], st.SunkEnergy(j))
			}
		}
	}

	// Machine loss and churn: nothing may execute, transmit, or receive on
	// a machine while it is out of the grid — past its loss time if it is
	// still dead, or inside any closed outage window if it rejoined.
	for j := 0; j < m; j++ {
		if !st.Alive(j) {
			lost := st.DeadAt(j)
			for _, sp := range execSpans[j] {
				if sp.end > lost {
					violatef(&out, "loss", "machine %d lost at %d but %s runs until %d", j, lost, sp.what, sp.end)
				}
			}
			for _, sp := range sendSpans[j] {
				if sp.end > lost {
					violatef(&out, "loss", "machine %d lost at %d but %s transmits until %d", j, lost, sp.what, sp.end)
				}
			}
			for _, sp := range recvSpans[j] {
				if sp.end > lost {
					violatef(&out, "loss", "machine %d lost at %d but %s arrives until %d", j, lost, sp.what, sp.end)
				}
			}
		}
		for _, w := range st.Downtime(j) {
			overlap := func(kind string, spans []span) {
				for _, sp := range spans {
					if sp.end > w.Start && sp.start < w.End {
						violatef(&out, "loss", "machine %d was out during [%d,%d) but %s %s spans [%d,%d)",
							j, w.Start, w.End, kind, sp.what, sp.start, sp.end)
					}
				}
			}
			overlap("exec", execSpans[j])
			overlap("send", sendSpans[j])
			overlap("recv", recvSpans[j])
		}
	}

	// Aggregates.
	if mapped != st.Mapped {
		violatef(&out, "aggregate", "state says %d mapped, replay counts %d", st.Mapped, mapped)
	}
	if t100 != st.T100 {
		violatef(&out, "aggregate", "state says T100=%d, replay counts %d", st.T100, t100)
	}
	if aet != st.AETCycles {
		violatef(&out, "aggregate", "state says AET=%d, replay finds %d", st.AETCycles, aet)
	}
	return out
}

// VerifyPlan runs Verify and additionally checks the schedule's
// consistency with a fault plan: the state's installed link-degradation
// windows match the plan's, every loss and rejoin that can have fired is
// reflected in the machine's outage record, and no failed subtask's final
// attempt spans its failure instant. Events with At beyond the final AET
// never fire (the run stops once nothing can change) and are skipped; an
// unfired event can only sit past the final AET, so the guard admits no
// false positives. pl must be normalized (ParsePlan output is).
func VerifyPlan(st *sched.State, pl *fault.Plan) []Violation {
	out := Verify(st)
	if pl == nil {
		return out
	}

	ws := st.LinkSlowdowns()
	if len(ws) != len(pl.Windows) {
		violatef(&out, "fault", "schedule built with %d link-degradation windows, plan has %d",
			len(ws), len(pl.Windows))
	} else {
		for k, w := range pl.Windows {
			if ws[k].Start != w.Start || ws[k].End != w.End || ws[k].Factor != w.Factor {
				violatef(&out, "fault", "installed slowdown window %d is [%d,%d)*%v, plan says [%d,%d)*%v",
					k, ws[k].Start, ws[k].End, ws[k].Factor, w.Start, w.End, w.Factor)
			}
		}
	}

	for _, ev := range pl.Events {
		switch ev.Kind {
		case fault.Lose:
			if ev.At > st.AETCycles {
				continue
			}
			if !st.Alive(ev.Machine) && st.DeadAt(ev.Machine) == ev.At {
				continue
			}
			found := false
			for _, w := range st.Downtime(ev.Machine) {
				if w.Start == ev.At {
					found = true
					break
				}
			}
			if !found {
				violatef(&out, "fault", "plan loses machine %d at cycle %d but the state records no such outage",
					ev.Machine, ev.At)
			}
		case fault.Rejoin:
			if ev.At > st.AETCycles {
				continue
			}
			found := false
			for _, w := range st.Downtime(ev.Machine) {
				if w.End == ev.At {
					found = true
					break
				}
			}
			if !found {
				violatef(&out, "fault", "plan rejoins machine %d at cycle %d but the state records no outage ending there",
					ev.Machine, ev.At)
			}
		case fault.Fail:
			// The final attempt may legitimately start exactly at the fault
			// cycle (a post-failure remap priced at now == At), but an
			// attempt already running at the instant must have been aborted.
			if a := st.Assignments[ev.Subtask]; a != nil && a.Start < ev.At && ev.At < a.End {
				violatef(&out, "fault", "subtask %d's final attempt [%d,%d) spans its planned failure at cycle %d",
					ev.Subtask, a.Start, a.End, ev.At)
			}
		}
	}
	return out
}

// VerifyComplete additionally requires a full mapping within the deadline.
func VerifyComplete(st *sched.State) []Violation {
	out := Verify(st)
	if !st.Done() {
		violatef(&out, "complete", "%d of %d subtasks mapped", st.Mapped, st.N())
	}
	if st.AETCycles > st.Inst.TauCycles {
		violatef(&out, "deadline", "AET %d exceeds tau %d", st.AETCycles, st.Inst.TauCycles)
	}
	return out
}
