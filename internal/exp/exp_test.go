package exp

import (
	"strings"
	"testing"

	"adhocgrid/internal/grid"
)

// benchEnv builds (once) the small environment used across tests.
var testEnvCache *Env

func testEnv(t testing.TB) *Env {
	t.Helper()
	if testEnvCache != nil {
		return testEnvCache
	}
	env, err := NewEnv(Bench())
	if err != nil {
		t.Fatal(err)
	}
	testEnvCache = env
	return env
}

func TestScaleValidate(t *testing.T) {
	for _, sc := range []Scale{Full(), Default(), Bench()} {
		if err := sc.Validate(); err != nil {
			t.Errorf("scale %q invalid: %v", sc.Name, err)
		}
	}
	bad := Bench()
	bad.N = 0
	if err := bad.Validate(); err == nil {
		t.Error("invalid scale accepted")
	}
}

func TestNewEnvInstances(t *testing.T) {
	env := testEnv(t)
	for _, c := range grid.AllCases {
		insts := env.Instances(c)
		if len(insts) != env.Scale.Scenarios() {
			t.Fatalf("case %v: %d instances, want %d", c, len(insts), env.Scale.Scenarios())
		}
		for _, inst := range insts {
			if inst.Grid.M() != inst.ETC.M() {
				t.Fatalf("case %v: machine/ETC mismatch", c)
			}
		}
	}
	if env.Instance(grid.CaseA, 0, 1) == env.Instance(grid.CaseA, 0, 0) {
		t.Fatal("distinct scenarios share an instance")
	}
}

func TestHeuristicNames(t *testing.T) {
	want := map[Heuristic]string{
		HeurSLRH1: "SLRH-1", HeurSLRH2: "SLRH-2", HeurSLRH3: "SLRH-3", HeurMaxMax: "Max-Max",
	}
	for h, name := range want {
		if h.String() != name {
			t.Errorf("%d: %q", int(h), h.String())
		}
	}
}

func TestTable1Table2Static(t *testing.T) {
	t1 := Table1()
	for _, want := range []string{"Case A", "Case B", "Case C", "2"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, t1)
		}
	}
	t2 := Table2()
	for _, want := range []string{"580", "58", "0.2", "0.002", "8 megabits", "4 megabits"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table 2 missing %q:\n%s", want, t2)
		}
	}
}

func TestTable3(t *testing.T) {
	env := testEnv(t)
	t3, err := env.Table3()
	if err != nil {
		t.Fatal(err)
	}
	// Case A reports three non-reference machines, B and C two each.
	if len(t3.PerCase[grid.CaseA]) != 3 || len(t3.PerCase[grid.CaseB]) != 2 || len(t3.PerCase[grid.CaseC]) != 2 {
		t.Fatalf("table 3 shape wrong: %v", t3.PerCase)
	}
	// Fast peer (Case A machine 1) must be below the slow machines.
	a := t3.PerCase[grid.CaseA]
	if a[0].Mean >= a[1].Mean || a[0].Mean >= a[2].Mean {
		t.Fatalf("fast MR %v not below slow MRs %v %v", a[0].Mean, a[1].Mean, a[2].Mean)
	}
	if !strings.Contains(t3.Render(), "Table 3") {
		t.Fatal("render missing title")
	}
}

func TestTable4(t *testing.T) {
	env := testEnv(t)
	t4 := env.Table4()
	if len(t4.Bounds) != env.Scale.NumETC {
		t.Fatalf("rows = %d", len(t4.Bounds))
	}
	for e, row := range t4.Bounds {
		if len(row) != 3 {
			t.Fatalf("row %d has %d cases", e, len(row))
		}
		for ci, b := range row {
			if b <= 0 || b > env.Scale.N {
				t.Fatalf("bound[%d][%d] = %d out of range", e, ci, b)
			}
		}
		// Machine loss cannot raise the bound.
		if row[1] > row[0] || row[2] > row[0] {
			t.Fatalf("bound increased on machine loss: %v", row)
		}
	}
	if !strings.Contains(t4.Render(), "Table 4") {
		t.Fatal("render missing title")
	}
}

func TestOptimaCachedAndFeasible(t *testing.T) {
	env := testEnv(t)
	o1 := env.Optima(HeurSLRH1, grid.CaseA)
	o2 := env.Optima(HeurSLRH1, grid.CaseA)
	if &o1[0] != &o2[0] {
		t.Fatal("optima not cached")
	}
	if len(o1) != env.Scale.Scenarios() {
		t.Fatalf("optima count = %d", len(o1))
	}
	found := 0
	for _, o := range o1 {
		if o.Found {
			found++
			if !o.Metrics.Complete || !o.Metrics.MetTau {
				t.Fatalf("found optimum is infeasible: %+v", o.Metrics)
			}
			if o.Elapsed <= 0 {
				t.Fatal("missing timing run")
			}
		}
	}
	if found == 0 {
		t.Fatal("SLRH-1 found no feasible weights in any scenario")
	}
}

func TestFig2(t *testing.T) {
	env := testEnv(t)
	f2, err := env.Fig2([]int64{5, 10, 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(f2.Rows) != 3 {
		t.Fatalf("rows = %d", len(f2.Rows))
	}
	for _, row := range f2.Rows {
		if len(row.T100) != len(f2.DAGs) {
			t.Fatalf("row %d has %d T100 entries", row.DeltaT, len(row.T100))
		}
		for _, v := range row.T100 {
			if v < 0 {
				t.Fatalf("dT=%d run failed", row.DeltaT)
			}
		}
	}
	if !strings.Contains(f2.Render(), "Figure 2") {
		t.Fatal("render missing title")
	}
}

// TestFig2PropagatesErrors pins the swallowed-error fix: a failed core.Run
// inside the sweep must surface as a non-nil error AND as an explicitly
// marked row, not as a silent T100 = -1.
func TestFig2PropagatesErrors(t *testing.T) {
	env := testEnv(t)
	// ΔT = 0 fails core.Config.Validate, so the second row cannot run.
	f2, err := env.Fig2([]int64{10, 0})
	if err == nil {
		t.Fatal("Fig2 swallowed the run error")
	}
	if f2 == nil {
		t.Fatal("Fig2 must still return the partial sweep alongside the error")
	}
	if f2.Rows[0].Failed(0) {
		t.Error("healthy row marked failed")
	}
	if !f2.Rows[1].Failed(0) {
		t.Error("failed row not marked")
	}
	if out := f2.Render(); !strings.Contains(out, "failed") {
		t.Errorf("render does not mark the failed row:\n%s", out)
	}
}

func TestFig3(t *testing.T) {
	env := testEnv(t)
	f3 := env.Fig3()
	for _, h := range AllHeuristics {
		for _, c := range grid.AllCases {
			cell, ok := f3.Cells[h][c]
			if !ok {
				t.Fatalf("missing cell %v/%v", h, c)
			}
			if cell.Total != env.Scale.Scenarios() {
				t.Fatalf("cell %v/%v total = %d", h, c, cell.Total)
			}
		}
	}
	out := f3.Render()
	for _, want := range []string{"SLRH-1", "SLRH-2", "SLRH-3", "Max-Max"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q", want)
		}
	}
}

func TestPerformance(t *testing.T) {
	env := testEnv(t)
	perf := env.Performance()
	for _, h := range StudyHeuristics {
		for _, c := range grid.AllCases {
			cell := perf.Cells[h][c]
			if cell.Total != env.Scale.Scenarios() {
				t.Fatalf("%v/%v total = %d", h, c, cell.Total)
			}
			if cell.Found > 0 {
				if cell.T100Mean <= 0 || cell.T100Mean > float64(env.Scale.N) {
					t.Fatalf("%v/%v T100 mean = %v", h, c, cell.T100Mean)
				}
				if cell.VsBoundMean <= 0 || cell.VsBoundMean > 1.0001 {
					t.Fatalf("%v/%v vs-bound = %v", h, c, cell.VsBoundMean)
				}
			}
		}
	}
	for _, render := range []string{perf.RenderFig4(), perf.RenderFig5(), perf.RenderFig6(), perf.RenderFig7()} {
		if !strings.Contains(render, "Case A") {
			t.Fatal("perf render missing cases")
		}
	}
}

func TestHorizonSweep(t *testing.T) {
	env := testEnv(t)
	fh, err := env.HorizonSweep([]int64{0, 100, 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(fh.Rows) != 3 {
		t.Fatalf("rows = %d", len(fh.Rows))
	}
	for _, row := range fh.Rows {
		for _, v := range row.T100 {
			if v < 0 {
				t.Fatalf("H=%d run failed", row.Horizon)
			}
		}
	}
	if !strings.Contains(fh.Render(), "Horizon sweep") {
		t.Fatal("render missing title")
	}
}

func TestRobustness(t *testing.T) {
	env := testEnv(t)
	rob, err := env.Robustness()
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range AllFamilies {
		cells, ok := rob.Cells[fam]
		if !ok {
			t.Fatalf("family %v missing", fam)
		}
		if rob.Stats[fam].N != env.Scale.N {
			t.Fatalf("family %v stats N = %d", fam, rob.Stats[fam].N)
		}
		// At least one heuristic must find a feasible mapping per family.
		any := false
		for _, h := range StudyHeuristics {
			if cells[h].Found {
				any = true
				// T100 may legitimately be 0 for Max-Max under tight
				// energy (see EXPERIMENTS.md deviation B).
				if cells[h].T100 < 0 || cells[h].T100 > env.Scale.N {
					t.Fatalf("family %v %v T100 = %d", fam, h, cells[h].T100)
				}
			}
		}
		if !any {
			t.Fatalf("family %v: no heuristic feasible", fam)
		}
	}
	out := rob.Render()
	for _, fam := range AllFamilies {
		if !strings.Contains(out, fam.String()) {
			t.Fatalf("render missing family %v", fam)
		}
	}
}

func TestScaling(t *testing.T) {
	env := testEnv(t)
	scl, err := env.Scaling([]int{32, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(scl.Rows) != 2 {
		t.Fatalf("rows = %d", len(scl.Rows))
	}
	for _, row := range scl.Rows {
		for _, h := range StudyHeuristics {
			if _, ok := row.Elapsed[h]; !ok {
				t.Fatalf("|T|=%d %v missing", row.N, h)
			}
			if row.Frac[h] < 0 || row.Frac[h] > 1.0001 {
				t.Fatalf("|T|=%d %v frac %v", row.N, h, row.Frac[h])
			}
		}
	}
	if !strings.Contains(scl.Render(), "Scaling with |T|") {
		t.Fatal("render missing title")
	}
}
