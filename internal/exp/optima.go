package exp

import (
	"time"

	"adhocgrid/internal/grid"
	"adhocgrid/internal/opt"
	"adhocgrid/internal/sched"
)

// Optimum is the result of the §VII weight search for one (heuristic,
// case, scenario) combination, plus a timing run at the optimal weights.
type Optimum struct {
	ETCIndex, DAGIndex int
	Weights            sched.Weights
	Metrics            sched.Metrics
	Found              bool          // a feasible (complete, within-τ) mapping exists
	Elapsed            time.Duration // heuristic wall time at the optimal weights
	FeasiblePoints     int           // evaluated weight settings that were feasible
	TotalPoints        int           // evaluated weight settings in total
}

// optKey indexes the optima cache.
type optKey struct {
	h Heuristic
	c grid.Case
}

// Optima runs (or returns the cached result of) the paper's weight search
// for every scenario of a case under heuristic h. Scenarios are evaluated
// in parallel; each scenario's search is sequential, so results are
// deterministic. For scenarios where no weight pair yields a feasible
// mapping (the paper's SLRH-2 situation), Found is false and Weights/
// Metrics describe the best infeasible point.
// Concurrent callers with the same key share one search: the first caller
// runs it while the others wait on an in-flight marker, so an expensive
// weight search is never duplicated (previously two goroutines racing past
// the cache check would each run the full search and the loser's result
// would overwrite the winner's).
func (e *Env) Optima(h Heuristic, c grid.Case) []Optimum {
	key := optKey{h, c}
	e.mu.Lock()
	for {
		if cached, ok := e.optima[key]; ok {
			e.mu.Unlock()
			return cached
		}
		done, running := e.inflight[key]
		if !running {
			break
		}
		// Another goroutine is computing this key; wait for it to finish,
		// then re-check the cache (the computation cannot fail, but the
		// loop keeps the invariant obvious).
		e.mu.Unlock()
		<-done
		e.mu.Lock()
	}
	done := make(chan struct{})
	e.inflight[key] = done
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.inflight, key)
		e.mu.Unlock()
		close(done)
	}()

	sc := e.Scale
	out := make([]Optimum, sc.Scenarios())
	opts := opt.Options{
		CoarseStep: sc.CoarseStep,
		FineStep:   sc.FineStep,
		FineRadius: sc.FineRadius,
		Workers:    1, // parallelism lives at the scenario level
	}
	e.parMap(sc.Scenarios(), func(k int) {
		etcIdx, dagIdx := k/sc.NumDAG, k%sc.NumDAG
		inst := e.Instance(c, etcIdx, dagIdx)
		runner := func(w sched.Weights) (sched.Metrics, error) {
			m, _, err := e.runHeuristic(h, inst, w)
			return m, err
		}
		res, err := opt.Search(runner, opts)
		o := Optimum{ETCIndex: etcIdx, DAGIndex: dagIdx}
		if err == nil {
			o.Weights = res.Best
			o.Metrics = res.Metrics
			o.Found = res.Found
			o.TotalPoints = len(res.Points)
			for _, p := range res.Points {
				if p.Feasible() {
					o.FeasiblePoints++
				}
			}
			// Timing run at the optimum for Figures 2, 6 and 7.
			if _, elapsed, err := e.runHeuristic(h, inst, res.Best); err == nil {
				o.Elapsed = elapsed
			}
		}
		out[k] = o
	})

	e.mu.Lock()
	e.optima[key] = out
	e.mu.Unlock()
	return out
}
