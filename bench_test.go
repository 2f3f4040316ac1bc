// Benchmark harness: one testing.B bench per table and figure of the
// paper's evaluation (DESIGN.md §3), plus ablation benches for the design
// choices the paper calls out, plus microbenches of the core heuristics.
//
// Table/figure benches regenerate the corresponding experiment at
// exp.Bench() scale per iteration and report the headline quantity with
// b.ReportMetric; they exist so `go test -bench=.` exercises every
// experiment path end to end. cmd/experiments produces the paper-style
// output at larger scales.
package adhocgrid_test

import (
	"testing"

	"adhocgrid"
	"adhocgrid/internal/bound"
	"adhocgrid/internal/core"
	"adhocgrid/internal/exp"
	"adhocgrid/internal/fault"
	"adhocgrid/internal/grid"
	"adhocgrid/internal/lrnn"
	"adhocgrid/internal/maxmax"
	"adhocgrid/internal/rng"
	"adhocgrid/internal/sched"
	"adhocgrid/internal/sim"
	"adhocgrid/internal/workload"
)

// benchInstance builds a deterministic instance for microbenches.
func benchInstance(b *testing.B, n int, c grid.Case, energyScale float64) *workload.Instance {
	b.Helper()
	p := workload.DefaultParams(n)
	p.EnergyScale = energyScale
	s, err := workload.Generate(p, rng.New(exp.DefaultSeed))
	if err != nil {
		b.Fatal(err)
	}
	inst, err := s.Instantiate(c)
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

// newBenchEnv builds a fresh bench-scale experiment environment. The
// table/figure benches built on it regenerate whole experiments per
// iteration, so they honor -short (`make bench` passes it by default).
func newBenchEnv(b *testing.B) *exp.Env {
	b.Helper()
	if testing.Short() {
		b.Skip("experiment-scale bench; run without -short")
	}
	env, err := exp.NewEnv(exp.Bench())
	if err != nil {
		b.Fatal(err)
	}
	return env
}

// --- Tables ---

func BenchmarkTable1Configs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, c := range grid.AllCases {
			g := grid.ForCase(c)
			if g.TSE() <= 0 {
				b.Fatal("bad grid")
			}
		}
		_ = exp.Table1()
		_ = exp.Table2()
	}
}

func BenchmarkTable3MinimumRatio(b *testing.B) {
	if testing.Short() {
		b.Skip("|T|=1024 table bench; run without -short")
	}
	inst := benchInstance(b, 1024, grid.CaseA, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mr, err := bound.MinimumRatios(inst.ETC)
		if err != nil {
			b.Fatal(err)
		}
		if mr[0] != 1 {
			b.Fatal("reference MR != 1")
		}
	}
}

func BenchmarkTable4UpperBound(b *testing.B) {
	if testing.Short() {
		b.Skip("|T|=1024 table bench; run without -short")
	}
	insts := make([]*workload.Instance, 0, 3)
	for _, c := range grid.AllCases {
		insts = append(insts, benchInstance(b, 1024, c, 0))
	}
	b.ResetTimer()
	var last int
	for i := 0; i < b.N; i++ {
		for _, inst := range insts {
			last = bound.UpperBound(inst).T100Bound
		}
	}
	b.ReportMetric(float64(last), "caseC-bound")
}

// --- Figures ---

func BenchmarkFig2DeltaTSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := newBenchEnv(b)
		f2, err := env.Fig2([]int64{5, 10, 50, 200})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(f2.Rows[1].T100[0]), "T100-dT10")
	}
}

func BenchmarkFig3WeightSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := newBenchEnv(b)
		f3 := env.Fig3()
		cell := f3.Cells[exp.HeurSLRH1][grid.CaseA]
		b.ReportMetric(cell.Alpha.Mean, "alphaA")
		b.ReportMetric(float64(cell.Found), "feasible")
	}
}

func benchPerf(b *testing.B, report func(*exp.PerfResult)) {
	for i := 0; i < b.N; i++ {
		env := newBenchEnv(b)
		report(env.Performance())
	}
}

func BenchmarkFig4T100(b *testing.B) {
	benchPerf(b, func(p *exp.PerfResult) {
		b.ReportMetric(p.Cells[exp.HeurSLRH1][grid.CaseA].T100Mean, "slrh1-T100-A")
		b.ReportMetric(p.Cells[exp.HeurMaxMax][grid.CaseA].T100Mean, "maxmax-T100-A")
	})
}

func BenchmarkFig5VsBound(b *testing.B) {
	benchPerf(b, func(p *exp.PerfResult) {
		b.ReportMetric(100*p.Cells[exp.HeurSLRH1][grid.CaseA].VsBoundMean, "slrh1-pct-A")
		b.ReportMetric(100*p.Cells[exp.HeurSLRH1][grid.CaseC].VsBoundMean, "slrh1-pct-C")
	})
}

func BenchmarkFig6ExecTime(b *testing.B) {
	benchPerf(b, func(p *exp.PerfResult) {
		b.ReportMetric(p.Cells[exp.HeurSLRH1][grid.CaseA].ElapsedMean.Seconds()*1e3, "slrh1-ms-A")
		b.ReportMetric(p.Cells[exp.HeurSLRH3][grid.CaseA].ElapsedMean.Seconds()*1e3, "slrh3-ms-A")
	})
}

func BenchmarkFig7Metric(b *testing.B) {
	benchPerf(b, func(p *exp.PerfResult) {
		b.ReportMetric(p.Cells[exp.HeurSLRH1][grid.CaseC].MetricMean, "slrh1-C")
		b.ReportMetric(p.Cells[exp.HeurMaxMax][grid.CaseC].MetricMean, "maxmax-C")
	})
}

// --- Ablations (design choices called out in §IV/§VII) ---
//
// The §IV communication-energy ablation runs against the test-only
// reference loop, so BenchmarkAblationCommEnergy lives in internal/core.

// BenchmarkAblationHorizon sweeps the receding horizon H; the paper found
// its impact on both T100 and execution time negligible (§VII).
func BenchmarkAblationHorizon(b *testing.B) {
	inst := benchInstance(b, 192, grid.CaseA, 0)
	w := sched.NewWeights(0.5, 0.3)
	horizons := []int64{0, 10, 100, 1000, 10000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, h := range horizons {
			cfg := core.DefaultConfig(core.SLRH1, w)
			cfg.Horizon = h
			res, err := core.Run(inst, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if h == 100 || h == 10000 {
				b.ReportMetric(float64(res.Metrics.T100), "T100-H"+itoa(h))
			}
		}
	}
}

// BenchmarkAblationActivation compares clock-driven activation
// granularities (ΔT = 1 vs the paper's 10 vs a coarse 100), the design
// dimension behind Figure 2.
func BenchmarkAblationActivation(b *testing.B) {
	inst := benchInstance(b, 192, grid.CaseA, 0)
	w := sched.NewWeights(0.5, 0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, dt := range []int64{1, 10, 100} {
			cfg := core.DefaultConfig(core.SLRH1, w)
			cfg.DeltaT = dt
			if _, err := core.Run(inst, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationAdaptiveAlpha compares fixed weights against the
// adaptive controller under a mid-run machine loss (§VIII future work).
func BenchmarkAblationAdaptiveAlpha(b *testing.B) {
	inst := benchInstance(b, 192, grid.CaseA, 0)
	w := sched.NewWeights(0.5, 0.3)
	loss := &fault.Plan{Events: []fault.Event{{Kind: fault.Lose, At: inst.TauCycles / 6, Machine: 1}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fixed := core.DefaultConfig(core.SLRH1, w)
		fixed.Faults = loss
		rf, err := core.Run(inst, fixed)
		if err != nil {
			b.Fatal(err)
		}
		adaptive := core.DefaultConfig(core.SLRH1, w)
		adaptive.Faults = loss
		adaptive.Adaptive = core.NewAdaptiveController(w)
		ra, err := core.Run(inst, adaptive)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rf.Metrics.Mapped), "mapped-fixed")
		b.ReportMetric(float64(ra.Metrics.Mapped), "mapped-adaptive")
	}
}

// --- Heuristic microbenches ---

func benchHeuristic(b *testing.B, run func(*workload.Instance) (sched.Metrics, error)) {
	inst := benchInstance(b, 192, grid.CaseA, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := run(inst)
		if err != nil {
			b.Fatal(err)
		}
		if m.Mapped == 0 {
			b.Fatal("mapped nothing")
		}
	}
}

func BenchmarkSLRH1(b *testing.B) {
	benchHeuristic(b, func(inst *workload.Instance) (sched.Metrics, error) {
		r, err := core.Run(inst, core.DefaultConfig(core.SLRH1, sched.NewWeights(0.5, 0.3)))
		if err != nil {
			return sched.Metrics{}, err
		}
		return r.Metrics, nil
	})
}

func BenchmarkSLRH2(b *testing.B) {
	benchHeuristic(b, func(inst *workload.Instance) (sched.Metrics, error) {
		r, err := core.Run(inst, core.DefaultConfig(core.SLRH2, sched.NewWeights(0.5, 0.3)))
		if err != nil {
			return sched.Metrics{}, err
		}
		return r.Metrics, nil
	})
}

func BenchmarkSLRH3(b *testing.B) {
	benchHeuristic(b, func(inst *workload.Instance) (sched.Metrics, error) {
		r, err := core.Run(inst, core.DefaultConfig(core.SLRH3, sched.NewWeights(0.5, 0.3)))
		if err != nil {
			return sched.Metrics{}, err
		}
		return r.Metrics, nil
	})
}

// BenchmarkSLRH measures the full SLRH variants at exp.Default() scale
// (|T|=256). internal/core's TestRunMatchesReference proves each
// schedule identical to the plainly written reference loop.
func BenchmarkSLRH(b *testing.B) {
	inst := benchInstance(b, 256, grid.CaseA, 0)
	w := sched.NewWeights(0.5, 0.3)
	for _, v := range []core.Variant{core.SLRH1, core.SLRH2, core.SLRH3} {
		b.Run(v.String(), func(b *testing.B) {
			cfg := core.DefaultConfig(v, w)
			for i := 0; i < b.N; i++ {
				r, err := core.Run(inst, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if r.Metrics.Mapped == 0 {
					b.Fatal("mapped nothing")
				}
			}
		})
	}
}

func BenchmarkMaxMax(b *testing.B) {
	benchHeuristic(b, func(inst *workload.Instance) (sched.Metrics, error) {
		r, err := maxmax.Run(inst, maxmax.Config{Weights: sched.NewWeights(1, 0)})
		if err != nil {
			return sched.Metrics{}, err
		}
		return r.Metrics, nil
	})
}

func BenchmarkLRNN(b *testing.B) {
	benchHeuristic(b, func(inst *workload.Instance) (sched.Metrics, error) {
		r, err := lrnn.Run(inst, lrnn.DefaultConfig(sched.NewWeights(0.5, 0.3)))
		if err != nil {
			return sched.Metrics{}, err
		}
		return r.Metrics, nil
	})
}

func BenchmarkVerify(b *testing.B) {
	inst := benchInstance(b, 192, grid.CaseA, 0)
	res, err := core.Run(inst, core.DefaultConfig(core.SLRH1, sched.NewWeights(0.5, 0.3)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := sim.Verify(res.State); len(v) != 0 {
			b.Fatal("violations")
		}
	}
}

func BenchmarkWorkloadGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := adhocgrid.GenerateScenario(256, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	pos := len(buf)
	for v > 0 {
		pos--
		buf[pos] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[pos:])
}

// BenchmarkNoiseRobustness replays an SLRH-1 schedule under the §I link-
// noise model and reports the deadline hit rate — the slack a receding-
// horizon schedule carries against degraded communications.
func BenchmarkNoiseRobustness(b *testing.B) {
	inst := benchInstance(b, 192, grid.CaseA, 0)
	res, err := core.Run(inst, core.DefaultConfig(core.SLRH1, sched.NewWeights(0.5, 0.3)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		study, err := sim.StudyNoise(res.State, sim.DefaultNoise(), 20, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*float64(study.MetTau)/float64(study.Trials), "met-tau-pct")
		b.ReportMetric(study.MeanStretch, "mean-stretch")
	}
}
