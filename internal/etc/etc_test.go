package etc

import (
	"encoding/json"
	"math"
	"testing"

	"adhocgrid/internal/grid"
	"adhocgrid/internal/rng"
)

func genA(t *testing.T, n int, seed uint64) *Matrix {
	t.Helper()
	m, err := Generate(DefaultParams(n), grid.ForCase(grid.CaseA), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestGenerateShape(t *testing.T) {
	m := genA(t, 64, 1)
	if m.N != 64 || m.M() != 4 {
		t.Fatalf("shape = %dx%d", m.N, m.M())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Classes[0] != grid.Fast || m.Classes[3] != grid.Slow {
		t.Fatalf("classes = %v", m.Classes)
	}
}

func TestEnsembleMeanNear131(t *testing.T) {
	// Large sample: the ensemble mean across the Case A machine mix should
	// track the paper's 131 s.
	m := genA(t, 4096, 2)
	if mean := m.Mean(); math.Abs(mean-131)/131 > 0.05 {
		t.Fatalf("ensemble mean = %v, want ~131", mean)
	}
}

func TestClassSeparation(t *testing.T) {
	m := genA(t, 2048, 3)
	var fastSum, slowSum float64
	for i := 0; i < m.N; i++ {
		fastSum += (m.At(i, 0) + m.At(i, 1)) / 2
		slowSum += (m.At(i, 2) + m.At(i, 3)) / 2
	}
	ratio := slowSum / fastSum
	// Paper: slow machines execute roughly ten times slower.
	if ratio < 8 || ratio > 12 {
		t.Fatalf("slow/fast mean ratio = %v, want ~10", ratio)
	}
}

func TestPerSubtaskRatioRandomized(t *testing.T) {
	m := genA(t, 512, 4)
	// The slow/fast ratio must vary per subtask (paper: "determined
	// randomly for each subtask to avoid any deterministic influence").
	first := m.At(0, 2) / m.At(0, 0)
	varied := false
	for i := 1; i < m.N; i++ {
		r := m.At(i, 2) / m.At(i, 0)
		if math.Abs(r-first) > 0.5 {
			varied = true
			break
		}
	}
	if !varied {
		t.Fatal("slow/fast ratio appears deterministic across subtasks")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := genA(t, 128, 7)
	b := genA(t, 128, 7)
	for i := 0; i < a.N; i++ {
		for j := 0; j < a.M(); j++ {
			if a.At(i, j) != b.At(i, j) {
				t.Fatalf("same seed diverged at (%d,%d)", i, j)
			}
		}
	}
	c := genA(t, 128, 8)
	if a.At(0, 0) == c.At(0, 0) && a.At(1, 1) == c.At(1, 1) {
		t.Fatal("different seeds produced identical cells")
	}
}

func TestGeneratedMatrixIsPartiallyConsistentOrInconsistent(t *testing.T) {
	// The fast/slow class split orders the classes, but members of one
	// class are unordered: each fast (and each slow) pair of machines
	// swaps speed order on some pair of subtasks, so no single machine
	// ranking fits every row (the matrix is never fully consistent).
	m := genA(t, 256, 33)
	for _, pair := range [][2]int{{0, 1}, {2, 3}} {
		a, b := pair[0], pair[1]
		faster, slower := false, false
		for i := 0; i < m.N; i++ {
			faster = faster || m.At(i, a) < m.At(i, b)
			slower = slower || m.At(i, a) > m.At(i, b)
		}
		if !faster || !slower {
			t.Fatalf("machines %d and %d keep one speed order on every subtask", a, b)
		}
	}
}

func TestViewAndForCase(t *testing.T) {
	m := genA(t, 16, 11)
	for _, c := range grid.AllCases {
		v, err := m.ForCase(c)
		if err != nil {
			t.Fatal(err)
		}
		wantCols := CaseColumns(c)
		if v.M() != len(wantCols) {
			t.Fatalf("case %v view has %d cols", c, v.M())
		}
		for i := 0; i < m.N; i++ {
			for vi, col := range wantCols {
				if v.At(i, vi) != m.At(i, col) {
					t.Fatalf("case %v view cell (%d,%d) mismatch", c, i, vi)
				}
			}
		}
		// View classes must match the grid layout for the case.
		gc := grid.ForCase(c)
		for j := 0; j < v.M(); j++ {
			if v.Classes[j] != gc.Machines[j].Class {
				t.Fatalf("case %v class mismatch at col %d", c, j)
			}
		}
	}
}

func TestViewIndependent(t *testing.T) {
	m := genA(t, 8, 13)
	v, err := m.View([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	v.Times[0][0] = -1
	if m.At(0, 0) == -1 {
		t.Fatal("view shares storage with parent")
	}
}

func TestViewBadColumn(t *testing.T) {
	m := genA(t, 8, 13)
	if _, err := m.View([]int{0, 9}); err == nil {
		t.Fatal("out-of-range view column accepted")
	}
}

func TestForCaseRequiresFullMatrix(t *testing.T) {
	m := genA(t, 8, 13)
	v, _ := m.View([]int{0, 1})
	if _, err := v.ForCase(grid.CaseA); err == nil {
		t.Fatal("ForCase on non-4-column matrix accepted")
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{N: 0, MeanETC: 1, TaskCV: 1, MachCV: 1, HeteroRatio: 1},
		{N: 1, MeanETC: 0, TaskCV: 1, MachCV: 1, HeteroRatio: 1},
		{N: 1, MeanETC: 1, TaskCV: 0, MachCV: 1, HeteroRatio: 1},
		{N: 1, MeanETC: 1, TaskCV: 1, MachCV: 1, HeteroRatio: 0.5},
		{N: 1, MeanETC: 1, TaskCV: 1, MachCV: 1, HeteroRatio: 1, RatioJitter: 1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, p)
		}
	}
	if err := DefaultParams(1024).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	m := genA(t, 16, 17)
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Matrix
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.N != m.N || back.M() != m.M() {
		t.Fatal("round trip changed shape")
	}
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.M(); j++ {
			if back.At(i, j) != m.At(i, j) {
				t.Fatalf("cell (%d,%d) changed", i, j)
			}
		}
	}
	if back.Classes[0] != grid.Fast || back.Classes[3] != grid.Slow {
		t.Fatal("classes lost in round trip")
	}
}

func TestUnmarshalRejectsInvalid(t *testing.T) {
	data := []byte(`{"n":2,"classes":[0],"times":[[1],[0]]}`)
	var m Matrix
	if err := json.Unmarshal(data, &m); err == nil {
		t.Fatal("non-positive cell accepted")
	}
}
