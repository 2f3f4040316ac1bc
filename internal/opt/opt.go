// Package opt implements the paper's §VII objective-weight search: a
// coarse sweep of (α, β) over [0,1]² in steps of 0.1 (with γ = 1−α−β ≥ 0),
// followed by a 0.02-step refinement around the best coarse point. A
// weight pair qualifies only if the heuristic maps every subtask within
// both the energy and time constraints; among qualifying pairs the search
// maximizes T100.
//
// The search is embarrassingly parallel across grid points; evaluation
// fans out through par.Map and the winner is selected with a
// deterministic comparator so results are independent of scheduling order.
package opt

import (
	"fmt"

	"adhocgrid/internal/par"
	"adhocgrid/internal/sched"
)

// RunnerFunc evaluates one weight setting and returns the resulting
// schedule metrics. It must be safe for concurrent invocation.
type RunnerFunc func(w sched.Weights) (sched.Metrics, error)

// Options controls the search.
type Options struct {
	CoarseStep float64 // default 0.1 (paper)
	FineStep   float64 // default 0.02 (paper); 0 disables refinement
	FineRadius float64 // half-width of the refinement window, default 0.1
	Workers    int     // parallel evaluations; 0 = GOMAXPROCS
}

// DefaultOptions returns the paper's search parameters.
func DefaultOptions() Options {
	return Options{CoarseStep: 0.1, FineStep: 0.02, FineRadius: 0.1}
}

// Point is one evaluated weight setting.
type Point struct {
	Weights sched.Weights
	Metrics sched.Metrics
	Err     error
}

// Feasible reports whether the point satisfied the paper's constraints:
// complete mapping within the deadline (energy is enforced during
// construction).
func (p Point) Feasible() bool { return p.Err == nil && p.Metrics.Feasible() }

// Result reports a completed search.
type Result struct {
	Best      sched.Weights
	Metrics   sched.Metrics
	Found     bool    // at least one feasible point existed
	Evaluated int     // total runner invocations
	Points    []Point // every evaluated point (coarse + fine), in grid order
}

// GridPoints enumerates (α, β) pairs with the given step such that
// α, β ∈ [0,1] and α+β <= 1, in deterministic order.
func GridPoints(step float64) []sched.Weights {
	if step <= 0 {
		return nil
	}
	var pts []sched.Weights
	steps := int(1/step + 0.5)
	for ai := 0; ai <= steps; ai++ {
		a := float64(ai) * step
		for bi := 0; ai+bi <= steps; bi++ {
			b := float64(bi) * step
			pts = append(pts, sched.NewWeights(a, b))
		}
	}
	return pts
}

// windowPoints enumerates the refinement grid around a center.
func windowPoints(center sched.Weights, step, radius float64) []sched.Weights {
	if step <= 0 || radius <= 0 {
		return nil
	}
	var pts []sched.Weights
	k := int(radius/step + 0.5)
	for ai := -k; ai <= k; ai++ {
		a := center.Alpha + float64(ai)*step
		if a < 0 || a > 1 {
			continue
		}
		for bi := -k; bi <= k; bi++ {
			b := center.Beta + float64(bi)*step
			if b < 0 || b > 1 || a+b > 1+1e-9 {
				continue
			}
			pts = append(pts, sched.NewWeights(a, b))
		}
	}
	return pts
}

// better reports whether point x beats point y under the paper's
// criterion: feasibility first, then maximum T100; ties prefer the lower
// energy consumption, then the shorter AET, then the lexicographically
// smaller (α, β) for determinism.
func better(x, y Point) bool {
	fx, fy := x.Feasible(), y.Feasible()
	if fx != fy {
		return fx
	}
	if !fx {
		// Among infeasible points prefer the more complete mapping, so
		// diagnostics stay meaningful.
		if x.Err == nil && y.Err == nil && x.Metrics.Mapped != y.Metrics.Mapped {
			return x.Metrics.Mapped > y.Metrics.Mapped
		}
		return false
	}
	if x.Metrics.T100 != y.Metrics.T100 {
		return x.Metrics.T100 > y.Metrics.T100
	}
	// The three float tie-breaks below are bit-exact on purpose: both
	// operands come out of the same deterministic evaluation pipeline,
	// and a total order (not an epsilon band, which is not transitive)
	// is what makes the winner independent of evaluation order.
	if x.Metrics.TEC != y.Metrics.TEC {
		return x.Metrics.TEC < y.Metrics.TEC
	}
	if x.Metrics.AETSeconds != y.Metrics.AETSeconds {
		return x.Metrics.AETSeconds < y.Metrics.AETSeconds
	}
	if x.Weights.Alpha != y.Weights.Alpha {
		return x.Weights.Alpha < y.Weights.Alpha
	}
	return x.Weights.Beta < y.Weights.Beta
}

// evaluate runs the runner over every point with bounded parallelism
// (par.Map), returning results in input order: each point writes only
// its own output slot.
func evaluate(run RunnerFunc, ws []sched.Weights, workers int) []Point {
	out := make([]Point, len(ws))
	par.Map(par.Workers(workers), len(ws), func(k int) {
		m, err := run(ws[k])
		out[k] = Point{Weights: ws[k], Metrics: m, Err: err}
	})
	return out
}

// Search performs the coarse-then-fine sweep and returns the best point.
func Search(run RunnerFunc, opts Options) (Result, error) {
	if run == nil {
		return Result{}, fmt.Errorf("opt: nil runner")
	}
	if opts.CoarseStep <= 0 {
		return Result{}, fmt.Errorf("opt: non-positive coarse step %v", opts.CoarseStep)
	}

	coarse := GridPoints(opts.CoarseStep)
	points := evaluate(run, coarse, opts.Workers)
	res := Result{Evaluated: len(points), Points: points}

	best := points[0]
	for _, p := range points[1:] {
		if better(p, best) {
			best = p
		}
	}
	if best.Feasible() && opts.FineStep > 0 {
		radius := opts.FineRadius
		if radius <= 0 {
			radius = opts.CoarseStep
		}
		fine := windowPoints(best.Weights, opts.FineStep, radius)
		finePoints := evaluate(run, fine, opts.Workers)
		res.Evaluated += len(finePoints)
		res.Points = append(res.Points, finePoints...)
		for _, p := range finePoints {
			if better(p, best) {
				best = p
			}
		}
	}
	res.Best = best.Weights
	res.Metrics = best.Metrics
	res.Found = best.Feasible()
	return res, nil
}
