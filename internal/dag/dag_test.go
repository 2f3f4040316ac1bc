package dag

import (
	"encoding/json"
	"testing"

	"adhocgrid/internal/rng"
)

func mustDiamond(t *testing.T) *Graph {
	t.Helper()
	// 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
	g := NewGraph(4)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestAddEdgeAndAccessors(t *testing.T) {
	g := mustDiamond(t)
	if g.N() != 4 {
		t.Fatalf("N = %d", g.N())
	}
	if g.Edges() != 4 {
		t.Fatalf("Edges = %d", g.Edges())
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) || g.HasEdge(0, 3) {
		t.Fatal("HasEdge wrong")
	}
	if got := g.Parents(3); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Parents(3) = %v", got)
	}
	if got := g.Children(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Children(0) = %v", got)
	}
}

func TestAddEdgeDuplicateIgnored(t *testing.T) {
	g := NewGraph(2)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if g.Edges() != 1 {
		t.Fatalf("duplicate edge stored: %d edges", g.Edges())
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := NewGraph(3)
	if err := g.AddEdge(0, 0); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(-1, 0); err == nil {
		t.Error("negative parent accepted")
	}
	if err := g.AddEdge(0, 3); err == nil {
		t.Error("out-of-range child accepted")
	}
}

func TestRootsSinks(t *testing.T) {
	g := mustDiamond(t)
	if r := g.Roots(); len(r) != 1 || r[0] != 0 {
		t.Fatalf("Roots = %v", r)
	}
	if s := g.Sinks(); len(s) != 1 || s[0] != 3 {
		t.Fatalf("Sinks = %v", s)
	}
}

func TestTopoOrder(t *testing.T) {
	g := mustDiamond(t)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[int]int)
	for i, v := range order {
		pos[v] = i
	}
	for p := 0; p < g.N(); p++ {
		for _, c := range g.Children(p) {
			if pos[p] >= pos[c] {
				t.Fatalf("topo order violates edge (%d,%d): %v", p, c, order)
			}
		}
	}
	// Deterministic tie-break: 0,1,2,3 for the diamond.
	want := []int{0, 1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestCycleDetection(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	if _, err := g.TopoOrder(); err != ErrCycle {
		t.Fatalf("TopoOrder err = %v, want ErrCycle", err)
	}
	if err := g.Validate(); err != ErrCycle {
		t.Fatalf("Validate err = %v, want ErrCycle", err)
	}
}

func TestLevelsAndDepth(t *testing.T) {
	g := mustDiamond(t)
	levels, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 1, 2}
	for i := range want {
		if levels[i] != want[i] {
			t.Fatalf("Levels = %v, want %v", levels, want)
		}
	}
	d, err := g.Depth()
	if err != nil || d != 3 {
		t.Fatalf("Depth = %d, %v", d, err)
	}
	empty := NewGraph(0)
	if d, err := empty.Depth(); err != nil || d != 0 {
		t.Fatalf("empty Depth = %d, %v", d, err)
	}
}

func TestGenerateStructure(t *testing.T) {
	for _, n := range []int{1, 2, 16, 128, 1024} {
		p := DefaultGenParams(n)
		g, err := Generate(p, rng.New(uint64(n)))
		if err != nil {
			t.Fatalf("Generate(n=%d): %v", n, err)
		}
		if g.N() != n {
			t.Fatalf("n=%d: got %d subtasks", n, g.N())
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("n=%d: invalid: %v", n, err)
		}
		// Every non-level-0 subtask must have at least one parent; ids are
		// topologically ordered by construction (parents have smaller ids).
		for i := 0; i < n; i++ {
			for _, par := range g.Parents(i) {
				if par >= i {
					t.Fatalf("n=%d: parent %d >= child %d", n, par, i)
				}
			}
			if len(g.Parents(i)) > p.MaxParents {
				t.Fatalf("n=%d: subtask %d has %d parents > max %d", n, i, len(g.Parents(i)), p.MaxParents)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := DefaultGenParams(256)
	g1, err := Generate(p, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Generate(p, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(g1)
	b2, _ := json.Marshal(g2)
	if string(b1) != string(b2) {
		t.Fatal("same seed produced different DAGs")
	}
	g3, err := Generate(p, rng.New(100))
	if err != nil {
		t.Fatal(err)
	}
	b3, _ := json.Marshal(g3)
	if string(b1) == string(b3) {
		t.Fatal("different seeds produced identical DAGs")
	}
}

func TestGenerateSingleSource(t *testing.T) {
	p := DefaultGenParams(64)
	p.SingleSource = true
	g, err := Generate(p, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if r := g.Roots(); len(r) != 1 {
		t.Fatalf("SingleSource produced %d roots", len(r))
	}
}

func TestGenerateDepthNearTarget(t *testing.T) {
	p := DefaultGenParams(1024)
	g, err := Generate(p, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	d, err := g.Depth()
	if err != nil {
		t.Fatal(err)
	}
	if d != p.MeanLevels {
		t.Fatalf("Depth = %d, want %d (every level has a mandatory chain)", d, p.MeanLevels)
	}
}

func TestGenParamsValidate(t *testing.T) {
	bad := []GenParams{
		{N: 0, MeanLevels: 1, MaxParents: 1},
		{N: 10, MeanLevels: 0, MaxParents: 1},
		{N: 10, MeanLevels: 11, MaxParents: 1},
		{N: 10, MeanLevels: 2, MaxParents: 0},
		{N: 10, MeanLevels: 2, MaxParents: 1, EdgeProb: 1.5},
		{N: 10, MeanLevels: 2, MaxParents: 1, WidthJitter: 1.0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, p)
		}
	}
	if err := DefaultGenParams(1024).Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
}

func TestComputeStats(t *testing.T) {
	g := mustDiamond(t)
	s, err := ComputeStats(g)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 4 || s.Edges != 4 || s.Depth != 3 || s.Roots != 1 || s.Sinks != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MaxFanIn != 2 || s.MaxFanOut != 2 {
		t.Fatalf("fan stats = %+v", s)
	}
	if s.MeanFanOut != 4.0/3.0 {
		t.Fatalf("MeanFanOut = %v", s.MeanFanOut)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g, err := Generate(DefaultGenParams(128), rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var back Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.N() != g.N() || back.Edges() != g.Edges() {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d", back.N(), back.Edges(), g.N(), g.Edges())
	}
	for i := 0; i < g.N(); i++ {
		for _, c := range g.Children(i) {
			if !back.HasEdge(i, c) {
				t.Fatalf("edge (%d,%d) lost in round trip", i, c)
			}
		}
	}
}

func TestUnmarshalRejectsCycle(t *testing.T) {
	data := []byte(`{"n":2,"edges":[[0,1],[1,0]]}`)
	var g Graph
	if err := json.Unmarshal(data, &g); err == nil {
		t.Fatal("cyclic JSON accepted")
	}
}

func TestUnmarshalRejectsBadEdge(t *testing.T) {
	data := []byte(`{"n":2,"edges":[[0,5]]}`)
	var g Graph
	if err := json.Unmarshal(data, &g); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}
