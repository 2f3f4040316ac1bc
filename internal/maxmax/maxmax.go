// Package maxmax implements the paper's static baseline heuristic (§V): a
// Max-Max list scheduler derived from the Min-Min approach of Ibarra and
// Kim [IbK77], using the same Lagrangian objective function as the SLRH
// variants but no receding horizon.
//
// At every step the heuristic forms the pool U of feasible subtask/version
// pairs — unlike SLRH, the primary and secondary versions of one subtask
// are assessed independently and may both appear in U — then, for each
// machine, finds the pair giving the maximum increase in the objective
// function, and across machines commits the best subtask/version/machine
// triplet. A triplet may be inserted into an idle hole earlier than the
// machine's availability time when precedence and link schedules allow.
package maxmax

import (
	"fmt"
	"time"

	"adhocgrid/internal/sched"
	"adhocgrid/internal/workload"
)

// Config parameterizes a Max-Max run.
type Config struct {
	Weights sched.Weights
}

// Result reports one Max-Max run.
type Result struct {
	Metrics sched.Metrics
	State   *sched.State
	Steps   int           // assignments committed
	Elapsed time.Duration // heuristic wall time (Figs 6, 7)
}

// Run executes the Max-Max heuristic to completion (all subtasks mapped)
// or until no feasible assignment remains.
//
// Every step scores each feasible version of every ready subtask on every
// machine, but prices through a per-run sched.PlanCache: a commit only
// touches its target machine and its transfers' senders, so only the
// candidates depending on those are re-priced (and most of them merely
// revalidated). The schedule is the one the per-triplet loop builds —
// the winner is the maximum of a total order, so neither the visiting
// order nor the cache can change it.
func Run(inst *workload.Instance, cfg Config) (*Result, error) {
	if err := cfg.Weights.Validate(); err != nil {
		return nil, err
	}
	st := sched.NewState(inst, cfg.Weights)
	res := &Result{State: st}
	m := inst.Grid.M()
	cache := sched.NewPlanCache(st.N(), m)

	var readyBuf []int
	start := time.Now() //lint:wallclock elapsed-time reporting only; never a scheduling input
	for !st.Done() {
		readyBuf = st.ReadySet(readyBuf)
		if len(readyBuf) == 0 {
			break // mapped everything reachable; Done() would have caught completion
		}
		// best's transfers alias its cache entry's buffer until Commit
		// interns them; that is safe because each (i, j) is priced once
		// per step.
		var best sched.Plan
		bestScore := 0.0
		found := false
		consider := func(plan *sched.Plan) {
			score := st.Hypothetical(plan)
			if !found || score > bestScore ||
				(score == bestScore && tieBreak(*plan, best)) {
				best, bestScore, found = *plan, score, true
			}
		}
		// The static heuristic schedules from time zero; EarliestFit lets
		// a triplet slide into any sufficiently large idle hole.
		for j := 0; j < m; j++ {
			for _, i := range readyBuf {
				pair := cache.Pair(st, i, j, 0)
				if pair.OKP {
					consider(&pair.PlanP)
				}
				if pair.OKS {
					consider(&pair.PlanS)
				}
			}
		}
		if !found {
			break // no machine can take any ready subtask: incomplete mapping
		}
		if err := st.Commit(best); err != nil {
			return nil, fmt.Errorf("maxmax: commit failed: %w", err)
		}
		res.Steps++
	}
	res.Elapsed = time.Since(start) //lint:wallclock elapsed-time reporting only; never a scheduling input
	res.Metrics = st.Metrics()
	return res, nil
}

// tieBreak orders equal-score plans deterministically: earlier start, then
// smaller subtask id, then smaller machine id, then primary first.
func tieBreak(a, b sched.Plan) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	if a.Subtask != b.Subtask {
		return a.Subtask < b.Subtask
	}
	if a.Machine != b.Machine {
		return a.Machine < b.Machine
	}
	return a.Version == workload.Primary && b.Version != workload.Primary
}
