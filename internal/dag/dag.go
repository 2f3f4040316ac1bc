// Package dag implements the directed-acyclic-graph substrate used to
// express subtask precedence in the ad hoc grid workload (paper §III).
//
// The paper generated its ten DAGs with the method of Shivle et al.
// [ShC04], whose parameters are not published; this package provides a
// seeded layered random generator with equivalent knobs (see generate.go
// and DESIGN.md substitution D1), plus the structural operations the
// heuristics and validators need: validation, topological order and
// level assignment.
package dag

import (
	"errors"
	"fmt"
	"sort"
)

// Graph is a DAG over subtasks 0..N-1. Edges point parent → child and
// carry the identity of a global data item the parent transmits to the
// child (the item's size in bits lives in the workload layer).
type Graph struct {
	n        int
	parents  [][]int // parents[i] = sorted parent ids of i
	children [][]int // children[i] = sorted child ids of i
}

// NewGraph returns an empty DAG over n subtasks and no edges.
// It panics if n < 0.
func NewGraph(n int) *Graph {
	if n < 0 {
		panic("dag: NewGraph with negative n")
	}
	return &Graph{
		n:        n,
		parents:  make([][]int, n),
		children: make([][]int, n),
	}
}

// N returns the number of subtasks.
func (g *Graph) N() int { return g.n }

// AddEdge inserts the precedence edge parent → child. Duplicate edges are
// ignored. It returns an error if either endpoint is out of range or the
// edge is a self-loop. AddEdge does not check acyclicity; call Validate
// after construction.
func (g *Graph) AddEdge(parent, child int) error {
	if parent < 0 || parent >= g.n || child < 0 || child >= g.n {
		return fmt.Errorf("dag: edge (%d,%d) out of range [0,%d)", parent, child, g.n)
	}
	if parent == child {
		return fmt.Errorf("dag: self-loop on %d", parent)
	}
	for _, c := range g.children[parent] {
		if c == child {
			return nil // already present
		}
	}
	g.children[parent] = insertSorted(g.children[parent], child)
	g.parents[child] = insertSorted(g.parents[child], parent)
	return nil
}

func insertSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// HasEdge reports whether parent → child is present.
func (g *Graph) HasEdge(parent, child int) bool {
	if parent < 0 || parent >= g.n || child < 0 || child >= g.n {
		return false
	}
	i := sort.SearchInts(g.children[parent], child)
	return i < len(g.children[parent]) && g.children[parent][i] == child
}

// Parents returns the parents of subtask i. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) Parents(i int) []int { return g.parents[i] }

// Children returns the children of subtask i. The returned slice is owned
// by the graph and must not be modified.
func (g *Graph) Children(i int) []int { return g.children[i] }

// Edges returns the total number of edges.
func (g *Graph) Edges() int {
	total := 0
	for _, cs := range g.children {
		total += len(cs)
	}
	return total
}

// Roots returns the subtasks with no parents, in increasing order.
func (g *Graph) Roots() []int {
	var roots []int
	for i := 0; i < g.n; i++ {
		if len(g.parents[i]) == 0 {
			roots = append(roots, i)
		}
	}
	return roots
}

// Sinks returns the subtasks with no children, in increasing order.
func (g *Graph) Sinks() []int {
	var sinks []int
	for i := 0; i < g.n; i++ {
		if len(g.children[i]) == 0 {
			sinks = append(sinks, i)
		}
	}
	return sinks
}

// ErrCycle is returned by Validate and TopoOrder when the graph contains a
// directed cycle.
var ErrCycle = errors.New("dag: graph contains a cycle")

// TopoOrder returns a topological order of the subtasks (Kahn's algorithm,
// ties broken by smallest id for determinism), or ErrCycle.
func (g *Graph) TopoOrder() ([]int, error) {
	indeg := make([]int, g.n)
	for i := 0; i < g.n; i++ {
		indeg[i] = len(g.parents[i])
	}
	// Min-heap by id for deterministic order.
	var ready intHeap
	for i := 0; i < g.n; i++ {
		if indeg[i] == 0 {
			ready.push(i)
		}
	}
	order := make([]int, 0, g.n)
	for ready.len() > 0 {
		v := ready.pop()
		order = append(order, v)
		for _, c := range g.children[v] {
			indeg[c]--
			if indeg[c] == 0 {
				ready.push(c)
			}
		}
	}
	if len(order) != g.n {
		return nil, ErrCycle
	}
	return order, nil
}

// Validate checks structural invariants: acyclicity and parent/child
// adjacency consistency.
func (g *Graph) Validate() error {
	for i := 0; i < g.n; i++ {
		for _, c := range g.children[i] {
			if c < 0 || c >= g.n {
				return fmt.Errorf("dag: child %d of %d out of range", c, i)
			}
			if !containsSorted(g.parents[c], i) {
				return fmt.Errorf("dag: edge (%d,%d) missing reverse link", i, c)
			}
		}
		for _, p := range g.parents[i] {
			if !containsSorted(g.children[p], i) {
				return fmt.Errorf("dag: edge (%d,%d) missing forward link", p, i)
			}
		}
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	return nil
}

func containsSorted(s []int, v int) bool {
	i := sort.SearchInts(s, v)
	return i < len(s) && s[i] == v
}

// Levels assigns each subtask its depth: roots are level 0 and every other
// subtask is 1 + max(parent levels). Returns ErrCycle on a cyclic graph.
func (g *Graph) Levels() ([]int, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	levels := make([]int, g.n)
	for _, v := range order {
		lv := 0
		for _, p := range g.parents[v] {
			if levels[p]+1 > lv {
				lv = levels[p] + 1
			}
		}
		levels[v] = lv
	}
	return levels, nil
}

// Depth returns the number of levels (length of the longest chain). An
// empty graph has depth 0.
func (g *Graph) Depth() (int, error) {
	if g.n == 0 {
		return 0, nil
	}
	levels, err := g.Levels()
	if err != nil {
		return 0, err
	}
	maxLv := 0
	for _, lv := range levels {
		if lv > maxLv {
			maxLv = lv
		}
	}
	return maxLv + 1, nil
}

// intHeap is a minimal min-heap of ints (by value) used by TopoOrder.
type intHeap struct{ a []int }

func (h *intHeap) len() int { return len(h.a) }

func (h *intHeap) push(v int) {
	h.a = append(h.a, v)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p] <= h.a[i] {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *intHeap) pop() int {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.a) && h.a[l] < h.a[smallest] {
			smallest = l
		}
		if r < len(h.a) && h.a[r] < h.a[smallest] {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.a[i], h.a[smallest] = h.a[smallest], h.a[i]
		i = smallest
	}
	return top
}
