package dag

import (
	"fmt"

	"adhocgrid/internal/rng"
)

// Beyond the layered generator, these structured families cover the DAG
// shapes common in the heterogeneous-computing literature the paper draws
// on. They let the experiment harness check that the heuristics' relative
// ordering is not an artifact of one precedence structure.

// GenerateOutTree builds a rooted tree with edges parent → child: subtask
// 0 is the root and every other subtask attaches to a uniformly random
// earlier subtask, subject to maxChildren (0 = unbounded). Ids are in
// topological order by construction.
func GenerateOutTree(n, maxChildren int, r *rng.Rand) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dag: GenerateOutTree needs n > 0, got %d", n)
	}
	g := NewGraph(n)
	childCount := make([]int, n)
	for v := 1; v < n; v++ {
		// Rejection-sample a parent with remaining child capacity; fall
		// back to a linear scan so the builder cannot stall.
		parent := -1
		for attempt := 0; attempt < 8; attempt++ {
			cand := r.Intn(v)
			if maxChildren <= 0 || childCount[cand] < maxChildren {
				parent = cand
				break
			}
		}
		if parent < 0 {
			for cand := 0; cand < v; cand++ {
				if maxChildren <= 0 || childCount[cand] < maxChildren {
					parent = cand
					break
				}
			}
		}
		if parent < 0 {
			return nil, fmt.Errorf("dag: GenerateOutTree cannot place subtask %d with maxChildren %d", v, maxChildren)
		}
		if err := g.AddEdge(parent, v); err != nil {
			return nil, err
		}
		childCount[parent]++
	}
	return g, nil
}

// GenerateInTree builds the reverse of an out-tree: a reduction tree where
// every subtask feeds exactly one later subtask and subtask n-1 is the
// single sink. The fan-in of each consumer is bounded by maxParents
// (0 = unbounded). Construction mirrors an out-tree so that the fan-in
// bound can always be satisfied.
func GenerateInTree(n, maxParents int, r *rng.Rand) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dag: GenerateInTree needs n > 0, got %d", n)
	}
	out, err := GenerateOutTree(n, maxParents, r)
	if err != nil {
		return nil, err
	}
	// Mirror: vertex v maps to n-1-v and edges reverse, so the out-tree's
	// root becomes the single sink and its fan-out bound becomes the
	// in-tree's fan-in bound.
	g := NewGraph(n)
	for p := 0; p < n; p++ {
		for _, c := range out.Children(p) {
			if err := g.AddEdge(n-1-c, n-1-p); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// GenerateForkJoin builds a series of fork-join stages: a fork subtask
// fans out to a random-width band of independent subtasks which all join
// into the next fork. width controls the mean band width (>= 1).
func GenerateForkJoin(n, width int, r *rng.Rand) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dag: GenerateForkJoin needs n > 0, got %d", n)
	}
	if width < 1 {
		return nil, fmt.Errorf("dag: GenerateForkJoin needs width >= 1, got %d", width)
	}
	g := NewGraph(n)
	// Subtask 0 is the first fork.
	pos := 1
	fork := 0
	for pos < n {
		// A band of 1..2*width-1 parallel subtasks (mean ~width), then a
		// join that becomes the next fork.
		w := 1
		if width > 1 {
			w = 1 + r.Intn(2*width-1)
		}
		remaining := n - pos
		if w > remaining {
			w = remaining
		}
		bandStart := pos
		for k := 0; k < w; k++ {
			if err := g.AddEdge(fork, pos); err != nil {
				return nil, err
			}
			pos++
		}
		if pos >= n {
			break
		}
		join := pos
		for k := bandStart; k < bandStart+w; k++ {
			if err := g.AddEdge(k, join); err != nil {
				return nil, err
			}
		}
		fork = join
		pos++
	}
	return g, nil
}
