package perf

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"adhocgrid/internal/core"
	"adhocgrid/internal/exp"
	"adhocgrid/internal/fabric"
	"adhocgrid/internal/grid"
	"adhocgrid/internal/maxmax"
	"adhocgrid/internal/rng"
	"adhocgrid/internal/sched"
	"adhocgrid/internal/serve"
	"adhocgrid/internal/workload"
)

// Options selects what the harness runs.
type Options struct {
	// Iters overrides every benchmark's iteration count (0 keeps the
	// per-benchmark defaults).
	Iters int
	// Short switches to the reduced iteration counts (CI smoke).
	Short bool
	// Filter restricts the run to benchmarks whose name contains any of
	// the given substrings (empty = the full suite).
	Filter []string
}

// DefaultSuite is the name of the shipped suite.
const DefaultSuite = "slrh-core"

// benchmark is one suite entry. setup builds the instance outside the
// timed region and returns the op to measure plus a sampler that reads
// schedule-quality metrics after the final iteration.
type benchmark struct {
	name       string
	iters      int
	shortIters int
	setup      func() (op func(), sample func() []Metric, err error)
}

// weights are the canonical experiment weights (α=0.5, β=0.3, γ=0.2).
func weights() sched.Weights { return sched.NewWeights(0.5, 0.3) }

// instance generates the fixed-seed workload at |T|=n on grid case A.
func instance(n int) (*workload.Instance, error) {
	s, err := workload.Generate(workload.DefaultParams(n), rng.New(exp.DefaultSeed))
	if err != nil {
		return nil, err
	}
	return s.Instantiate(grid.CaseA)
}

// slrhBench builds one SLRH-1 benchmark at |T|=n.
//
// Every SLRH benchmark runs through a core.Arena so the measured steady
// state is the zero-alloc one the AllocCaps pin: the first measure()
// warm-up op grows the arena to the workload's high-water mark, and the
// timed iterations reuse that storage.
func slrhBench(n int) func() (func(), func() []Metric, error) {
	return func() (func(), func() []Metric, error) {
		inst, err := instance(n)
		if err != nil {
			return nil, nil, err
		}
		cfg := core.DefaultConfig(core.SLRH1, weights())
		arena := core.NewArena()
		var last *core.Result
		op := func() {
			res, err := core.RunArena(inst, cfg, arena)
			if err != nil {
				panic(fmt.Sprintf("perf: core.RunArena(|T|=%d): %v", n, err))
			}
			last = res
		}
		sample := func() []Metric {
			return []Metric{
				{Name: "t100_cycles", Value: float64(last.Metrics.T100)},
				{Name: "mapped", Value: float64(last.Metrics.Mapped)},
				{Name: "timesteps", Value: float64(last.Timesteps)},
			}
		}
		return op, sample, nil
	}
}

// maxmaxBench builds the Max-Max baseline benchmark at |T|=n.
func maxmaxBench(n int) func() (func(), func() []Metric, error) {
	return func() (func(), func() []Metric, error) {
		inst, err := instance(n)
		if err != nil {
			return nil, nil, err
		}
		cfg := maxmax.Config{Weights: weights()}
		var last *maxmax.Result
		op := func() {
			res, err := maxmax.Run(inst, cfg)
			if err != nil {
				panic(fmt.Sprintf("perf: maxmax.Run(|T|=%d): %v", n, err))
			}
			last = res
		}
		sample := func() []Metric {
			return []Metric{
				{Name: "t100_cycles", Value: float64(last.Metrics.T100)},
				{Name: "mapped", Value: float64(last.Metrics.Mapped)},
			}
		}
		return op, sample, nil
	}
}

// slrhdBench measures POST /v1/map end to end against an in-process
// service: decode, admission, run, verify, encode. Iterations ping-pong
// between two fixed seeds against a single-entry result cache, so every
// request is a miss (full compute path) yet the work is identical at any
// iteration count — full runs and CI smoke measure the same two ops.
func slrhdBench(n int) func() (func(), func() []Metric, error) {
	return func() (func(), func() []Metric, error) {
		srv := serve.New(serve.Config{CacheSize: 1})
		ts := httptest.NewServer(srv.Handler())
		// Leaked intentionally for the process lifetime of the runner: the
		// harness exits right after the suite, and tearing down mid-suite
		// would skew later benchmarks with drain work.
		seed := uint64(2) // first op flips this to 1
		var lastStatus, lastBytes int
		op := func() {
			seed = 3 - seed // ping-pong 1 ↔ 2: two workloads, all cache misses
			body := fmt.Sprintf(
				`{"n": %d, "case": "A", "heuristic": "slrh1", "seed": %d, "alpha": 0.5, "beta": 0.3}`,
				n, exp.DefaultSeed+seed)
			resp, err := http.Post(ts.URL+"/v1/map", "application/json", strings.NewReader(body))
			if err != nil {
				panic(fmt.Sprintf("perf: POST /v1/map: %v", err))
			}
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				panic(fmt.Sprintf("perf: read /v1/map body: %v", err))
			}
			if err := resp.Body.Close(); err != nil {
				panic(fmt.Sprintf("perf: close /v1/map body: %v", err))
			}
			lastStatus, lastBytes = resp.StatusCode, buf.Len()
		}
		sample := func() []Metric {
			return []Metric{
				{Name: "status", Value: float64(lastStatus)},
				{Name: "response_bytes", Value: float64(lastBytes)},
			}
		}
		return op, sample, nil
	}
}

// fabricRouterBench measures the router's per-request overhead: a
// slrhrouter over one in-process slrhd backend, posting the same
// scenario so every routed request after the first is a backend cache
// hit — the measured cost is the fabric's own work (key computation,
// ring lookup, breaker check, budget deposit, proxying) plus one local
// HTTP hop, not the planner.
func fabricRouterBench(n int) func() (func(), func() []Metric, error) {
	return func() (func(), func() []Metric, error) {
		srv := serve.New(serve.Config{})
		ts := httptest.NewServer(srv.Handler())
		// Backend and router are leaked intentionally for the process
		// lifetime of the runner, like slrhdBench's service.
		rt, err := fabric.New(fabric.Config{
			Backends:      []string{ts.URL},
			ProbeInterval: time.Hour, // one boot-time probe; no mid-benchmark noise
		})
		if err != nil {
			return nil, nil, err
		}
		front := httptest.NewServer(rt.Handler())
		body := fmt.Sprintf(
			`{"n": %d, "case": "A", "heuristic": "slrh1", "seed": %d, "alpha": 0.5, "beta": 0.3}`,
			n, exp.DefaultSeed)
		var lastStatus, lastBytes int
		var hits float64
		op := func() {
			resp, err := http.Post(front.URL+"/v1/map", "application/json", strings.NewReader(body))
			if err != nil {
				panic(fmt.Sprintf("perf: routed POST /v1/map: %v", err))
			}
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				panic(fmt.Sprintf("perf: read routed /v1/map body: %v", err))
			}
			if err := resp.Body.Close(); err != nil {
				panic(fmt.Sprintf("perf: close routed /v1/map body: %v", err))
			}
			if resp.Header.Get("X-Cache") == "hit" {
				hits++
			}
			lastStatus, lastBytes = resp.StatusCode, buf.Len()
		}
		sample := func() []Metric {
			return []Metric{
				{Name: "status", Value: float64(lastStatus)},
				{Name: "response_bytes", Value: float64(lastBytes)},
				{Name: "cache_hits", Value: hits},
			}
		}
		return op, sample, nil
	}
}

// admissionBatch is how many Decide/Complete round-trips one
// admission-benchmark op performs: a single decision is tens of
// nanoseconds, far below the timer floor, so the suite prices them by
// the thousand (the reported ns/op is per batch).
const admissionBatch = 1000

// admissionWorkers is the run-worker count the admission benchmark
// divides its predicted backlog by. It is fixed, not GOMAXPROCS, so the
// admitted/shed metrics are the same on every host.
const admissionWorkers = 2

// admissionBench measures the pure admission decision against a warmed
// cost model: predict, rule, book backlog, retire. This is the hot
// per-request overhead the cost-predictive path added in front of
// /v1/map, so CI watches it stays in the noise next to the runs it
// guards.
func admissionBench() func() (func(), func() []Metric, error) {
	return func() (func(), func() []Metric, error) {
		model := serve.NewCostModel()
		for i := 0; i < 10; i++ {
			for _, n := range []int{64, 256, 1024} {
				model.Observe("slrh1", n, 0.005+0.0002*float64(n))
			}
		}
		adm := serve.NewAdmission(model, admissionWorkers, 1)
		cls := serve.Class{Name: "interactive", Priority: 0, TargetSeconds: 2}
		var admitted, shed float64
		op := func() {
			for i := 0; i < admissionBatch; i++ {
				// Size varies across a few bins so prediction is not one
				// constant lookup; Complete keeps the backlog bounded.
				d := adm.Decide("slrh1", 64+(i&1023), cls)
				if d.Admit {
					admitted++
					adm.Complete(d.Predicted)
				} else {
					shed++
				}
			}
		}
		sample := func() []Metric {
			return []Metric{
				{Name: "admitted", Value: admitted},
				{Name: "shed", Value: shed},
				{Name: "backlog_seconds", Value: adm.Backlog()},
			}
		}
		return op, sample, nil
	}
}

// suite returns the slrh-core benchmark list. Names are stable: CI
// compares baselines by name.
func suite() []benchmark {
	return []benchmark{
		{name: "slrh1_serial_n256", iters: 30, shortIters: 5, setup: slrhBench(256)},
		{name: "slrh1_serial_n1024", iters: 8, shortIters: 4, setup: slrhBench(1024)},
		{name: "maxmax_n256", iters: 30, shortIters: 5, setup: maxmaxBench(256)},
		{name: "slrhd_map_n96", iters: 40, shortIters: 6, setup: slrhdBench(96)},
		{name: "fabric_router_overhead", iters: 40, shortIters: 6, setup: fabricRouterBench(96)},
		{name: "admission_decide_x1000", iters: 50, shortIters: 10, setup: admissionBench()},
	}
}

// selected reports whether name passes the filter.
func selected(name string, filter []string) bool {
	if len(filter) == 0 {
		return true
	}
	for _, f := range filter {
		if strings.Contains(name, f) {
			return true
		}
	}
	return false
}

// Run executes the suite and assembles the report. Benchmarks run
// strictly in declaration order, one at a time.
func Run(opts Options) (*Report, error) {
	r := &Report{
		SchemaVersion: SchemaVersion,
		Suite:         DefaultSuite,
		Seed:          exp.DefaultSeed,
		GoMaxProcs:    runtime.GOMAXPROCS(0),
	}
	for _, b := range suite() {
		if !selected(b.name, opts.Filter) {
			continue
		}
		iters := b.iters
		if opts.Short {
			iters = b.shortIters
		}
		if opts.Iters > 0 {
			iters = opts.Iters
		}
		op, sample, err := b.setup()
		if err != nil {
			return nil, fmt.Errorf("bench %s: %w", b.name, err)
		}
		ns, allocs, bts := measure(iters, op)
		r.Benchmarks = append(r.Benchmarks, BenchResult{
			Name:        b.name,
			Iterations:  iters,
			NsPerOp:     ns,
			AllocsPerOp: &allocs,
			BytesPerOp:  &bts,
			Metrics:     sample(),
		})
	}
	return r, nil
}
