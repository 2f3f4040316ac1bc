package dag

import (
	"testing"

	"adhocgrid/internal/rng"
)

func TestGenerateOutTree(t *testing.T) {
	for _, n := range []int{1, 2, 10, 200} {
		g, err := GenerateOutTree(n, 3, rng.New(uint64(n)))
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if g.Edges() != n-1 {
			t.Fatalf("n=%d: tree has %d edges", n, g.Edges())
		}
		if r := g.Roots(); len(r) != 1 || r[0] != 0 {
			t.Fatalf("n=%d: roots = %v", n, r)
		}
		for i := 0; i < n; i++ {
			if len(g.Parents(i)) > 1 {
				t.Fatalf("n=%d: subtask %d has %d parents in an out-tree", n, i, len(g.Parents(i)))
			}
			if len(g.Children(i)) > 3 {
				t.Fatalf("n=%d: subtask %d exceeds maxChildren", n, i)
			}
		}
	}
	if _, err := GenerateOutTree(0, 3, rng.New(1)); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestGenerateOutTreeUnboundedChildren(t *testing.T) {
	g, err := GenerateOutTree(50, 0, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateInTree(t *testing.T) {
	for _, n := range []int{1, 2, 10, 200} {
		g, err := GenerateInTree(n, 4, rng.New(uint64(n)))
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if g.Edges() != n-1 {
			t.Fatalf("n=%d: in-tree has %d edges", n, g.Edges())
		}
		if s := g.Sinks(); len(s) != 1 || s[0] != n-1 {
			t.Fatalf("n=%d: sinks = %v", n, s)
		}
		for i := 0; i < n; i++ {
			if len(g.Children(i)) > 1 {
				t.Fatalf("n=%d: subtask %d has %d children in an in-tree", n, i, len(g.Children(i)))
			}
			if len(g.Parents(i)) > 4 {
				t.Fatalf("n=%d: subtask %d exceeds maxParents", n, i)
			}
		}
	}
}

func TestGenerateForkJoin(t *testing.T) {
	g, err := GenerateForkJoin(100, 5, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if r := g.Roots(); len(r) != 1 || r[0] != 0 {
		t.Fatalf("roots = %v", r)
	}
	// Every non-root is connected.
	for i := 1; i < g.N(); i++ {
		if len(g.Parents(i)) == 0 {
			t.Fatalf("subtask %d disconnected", i)
		}
	}
	if _, err := GenerateForkJoin(10, 0, rng.New(1)); err == nil {
		t.Fatal("width=0 accepted")
	}
}

func TestGenerateForkJoinWidthOne(t *testing.T) {
	// Width 1 degenerates to a chain.
	g, err := GenerateForkJoin(10, 1, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	d, err := g.Depth()
	if err != nil {
		t.Fatal(err)
	}
	if d != 10 {
		t.Fatalf("chain depth = %d, want 10", d)
	}
}
