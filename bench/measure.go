package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metricDef names a reported metric and its unit; BENCHMARK.json lists
// the same names with their directions and bounds.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a client of the fleet sees, reported with
// -trace 0.
var endToEnd = []metricDef{
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"cpu_ms_per_req", "ms"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// measuredLayer are the per-layer metrics read from outside the
// measured run: /metrics deltas of the fleet and /proc.
var measuredLayer = []metricDef{
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.coalesced_ratio", "ratio"},
	{"serve.shed_ratio", "ratio"},
	{"fabric.retries_per_req", "count"},
	{"serve.run_ms_mean", "ms"},
	{"core.heuristic_ms_mean", "ms"},
	{"serve.prediction_ratio_err", "ratio"},
	{"fabric.backend_share_max", "ratio"},
	{"fabric.cpu_ms_per_req", "ms"},
	{"serve.cpu_ms_per_req", "ms"},
	{"fabric.peak_rss_mb", "MB"},
	{"serve.peak_rss_mb", "MB"},
	{"loadgen.cpu_ms_per_req", "ms"},
}

// tracedLayer are the per-layer metrics of the traced replay.
var tracedLayer = []metricDef{
	{"core.run_ms", "ms"},
	{"core.timesteps", "count"},
	{"core.timestep_us_p50", "us"},
	{"core.timestep_us_p99", "us"},
	{"core.run_allocs", "count"},
	{"maxmax.run_ms", "ms"},
	{"maxmax.run_allocs", "count"},
	{"par.score_speedup", "x"},
	{"core.share", "ratio"},
	{"workload.generate_ms", "ms"},
	{"workload.generate_allocs", "count"},
	{"workload.instantiate_ms", "ms"},
	{"workload.instantiate_allocs", "count"},
	{"sim.verify_ms", "ms"},
	{"sim.verify_allocs", "count"},
	{"serve.encode_us", "us"},
	{"serve.encode_allocs", "count"},
	{"serve.execute_allocs", "count"},
	{"serve.decode_us", "us"},
	{"serve.canonical_us", "us"},
	{"serve.key_us", "us"},
	{"serve.cache_us", "us"},
	{"serve.admission_us", "us"},
	{"core.arena_us", "us"},
	{"fabric.hop_us", "us"},
	{"serve.handler_us", "us"},
	{"serve.wait_ms_mean", "ms"},
	{"ledger.coverage", "ratio"},
	{"serve.other_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// perLayer are all per-layer metrics, reported with -trace 1.
var perLayer = append(append([]metricDef(nil), measuredLayer...), tracedLayer...)

// tailPercentile is the latency tail reported: the highest percentile
// every workload's window supports with at least minBeyond samples
// beyond it (README.md "Metrics").
const tailPercentile = 95

// warm sends the stream's warm-up ops through the router, the
// workload's clients in parallel, checking every answer. It returns the
// verified answer of each hit_zipf catalogue entry.
func warm(ctx context.Context, client *http.Client, base string, s *stream) ([][]byte, error) {
	var expected [][]byte
	if s.catalogue != nil {
		expected = make([][]byte, len(s.catalogue))
	}
	var next atomic.Int64
	errs := make([]error, s.clients)
	var wg sync.WaitGroup
	for c := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for errs[c] == nil {
				k := int(next.Add(1) - 1)
				if k >= len(s.warm) {
					return
				}
				errs[c] = warmOp(ctx, client, base, k, s.warm[k], expected)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return expected, nil
}

// warmOp sends warm-up op k and checks its answer; a hit_zipf entry's
// verified bytes go to expected.
func warmOp(ctx context.Context, client *http.Client, base string, k int, p op, expected [][]byte) error {
	status, body, err := post(ctx, client, base+p.path, p.body)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %.200s", status, body)
	}
	if err != nil {
		return fmt.Errorf("warm-up op %d %s: %w", k, p.body, err)
	}
	o := &outcome{}
	if p.path == "/v1/map/batch" {
		o.checkBatch(k, p, body)
	} else {
		o.checkMap(k, -1, p.reqs[0], body, -1, nil)
	}
	if problems := append(o.wrong, o.errs...); len(problems) > 0 {
		return fmt.Errorf("warm-up: %s", strings.Join(problems, "; "))
	}
	if p.entry >= 0 {
		expected[p.entry] = body
	}
	return nil
}

// windowResult is the measured window's outcome and the metrics read
// around it.
type windowResult struct {
	o *outcome
	m map[string]float64
}

// window drives the workload through the fleet for -seconds and reads
// /metrics and /proc of every fleet process before and after.
func window(ctx context.Context, cfg config, s *stream, f *fleet, client *http.Client, expected [][]byte) (*windowResult, error) {
	procs := f.procs()
	before, cpuBefore, err := observe(ctx, client, procs)
	if err != nil {
		return nil, err
	}
	selfBefore := selfCPU()
	o := drive(ctx, client, f.router.url, s, expected, time.Duration(cfg.seconds*float64(time.Second)), minSamples(tailPercentile))
	selfUsed := selfCPU() - selfBefore
	after, cpuAfter, err := observe(ctx, client, procs)
	if err != nil {
		return nil, err
	}
	var rss []float64
	for _, p := range procs {
		mb, err := procPeakRSS(p.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		rss = append(rss, mb)
	}
	if o.okItems == 0 {
		return nil, fmt.Errorf("no successful results in the window (%d attempted; %s)", o.items, strings.Join(o.errs, "; "))
	}
	p50, err := percentile(o.lat, 50)
	if err != nil {
		return nil, err
	}
	tail, err := percentile(o.lat, tailPercentile)
	if err != nil {
		return nil, err
	}

	ok := float64(o.okItems)
	msPer := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 / ok }
	routerCPU := cpuAfter[0] - cpuBefore[0]
	var backendCPU time.Duration
	for k := 1; k < len(procs); k++ {
		backendCPU += cpuAfter[k] - cpuBefore[k]
	}
	dr := delta(before[0], after[0])
	db, lifetime := samples{}, samples{}
	for k := 1; k < len(procs); k++ {
		db = db.plus(delta(before[k], after[k]))
		lifetime = lifetime.plus(after[k])
	}
	hits, misses, coalesced := db.sum("slrhd_cache_hits_total"), db.sum("slrhd_cache_misses_total"), db.sum("slrhd_coalesced_total")
	served := hits + misses + coalesced
	var routed, routedMax float64
	for k, v := range dr {
		if strings.HasPrefix(k, "slrhrouter_routed_total{") {
			routed += v
			routedMax = math.Max(routedMax, v)
		}
	}
	predErr := 0.0
	if n := lifetime.sum("slrhd_prediction_ratio_count"); n > 0 {
		predErr = math.Abs(lifetime.sum("slrhd_prediction_ratio_sum")/n - 1)
	}
	backendRSS := 0.0
	for _, mb := range rss[1:] {
		backendRSS += mb
	}

	m := map[string]float64{
		"throughput_rps": ok / o.elapsed,
		"latency_p50_ms": p50,
		"latency_p95_ms": tail,
		"cpu_ms_per_req": msPer(routerCPU + backendCPU),
		"peak_rss_mb":    rss[0] + backendRSS,

		"serve.cache_hit_ratio":      ratio(hits, served),
		"serve.coalesced_ratio":      ratio(coalesced, served),
		"serve.shed_ratio":           ratio(db.sum("slrhd_shed_total"), db.sum("slrhd_map_requests_total")),
		"fabric.retries_per_req":     ratio(dr.sum("slrhrouter_retries_total"), float64(o.items)),
		"serve.run_ms_mean":          1e3 * ratio(lifetime.sum("slrhd_run_seconds_sum"), lifetime.sum("slrhd_run_seconds_count")),
		"core.heuristic_ms_mean":     1e3 * ratio(lifetime.sum("slrhd_heuristic_seconds_sum"), lifetime.sum("slrhd_heuristic_seconds_count")),
		"serve.prediction_ratio_err": predErr,
		"fabric.backend_share_max":   ratio(routedMax, routed),
		"fabric.cpu_ms_per_req":      msPer(routerCPU),
		"serve.cpu_ms_per_req":       msPer(backendCPU),
		"fabric.peak_rss_mb":         rss[0],
		"serve.peak_rss_mb":          backendRSS,
		"loadgen.cpu_ms_per_req":     msPer(selfUsed),
	}
	fmt.Fprintf(os.Stderr, "fleetbench: %s window: %d ops, %d/%d results ok in %.2fs\n",
		s.name, o.ops, o.okItems, o.items, o.elapsed)
	return &windowResult{o: o, m: m}, nil
}

// observe scrapes /metrics of every process and reads its CPU time.
func observe(ctx context.Context, client *http.Client, procs []*proc) ([]samples, []time.Duration, error) {
	var ss []samples
	var cpu []time.Duration
	for _, p := range procs {
		sm, err := scrape(ctx, client, p.url)
		if err != nil {
			return nil, nil, err
		}
		c, err := procCPU(p.cmd.Process.Pid)
		if err != nil {
			return nil, nil, err
		}
		ss = append(ss, sm)
		cpu = append(cpu, c)
	}
	return ss, cpu, nil
}
