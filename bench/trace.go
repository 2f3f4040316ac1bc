package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"adhocgrid/internal/core"
	"adhocgrid/internal/par"
	"adhocgrid/internal/serve"
)

// prefix sizes the traced run: how many of the stream's first map
// requests the decomposition replays (batch_sweep: the items of its
// first batch), and how many ops the in-process fleet replays.
type prefix struct{ decompose, replay int }

var prefixes = map[string]prefix{
	paperMiss:  {decompose: 10, replay: 10},
	smallMiss:  {decompose: 40, replay: 40},
	hitZipf:    {decompose: 40, replay: 400},
	batchSweep: {decompose: 48, replay: 3},
}

// tracedReps is how often the decomposition times each request.
// Per-request figures are the fastest repetition: noise from other
// tenants of a shared host only ever slows a call down.
const tracedReps = 5

// coverageTolerance is how far Σ decomposed spans may stray from the
// serve.ExecuteArena time they decompose.
const coverageTolerance = 0.1

// traceReq is one request of the traced prefix: its decoded form and
// the bytes a backend decodes it from.
type traceReq struct {
	req  serve.Request
	body []byte
}

// traceRow collects one request's span totals (µs) across repetitions.
type traceRow struct {
	slrh   bool
	steps  int
	us     map[string][]float64
	allocs map[string]float64 // heap allocations per span name, from countAllocs
}

// best returns the request's fastest total for a span name; 0 if the
// request never entered that span.
func (r *traceRow) best(name string) float64 {
	xs := r.us[name]
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Min(m, x)
	}
	return m
}

// traced runs the traced replay of the stream's prefix and returns the
// traced per-layer metrics and any ledger-check failures. Spans are
// written to outPath as JSON.
func traced(ctx context.Context, s *stream, pre prefix, outPath string) (map[string]float64, []string, error) {
	env := &traceEnv{
		t:     newTracer(),
		ap:    core.NewArenaPool(),
		cache: serve.NewCache(1024),
		adm:   serve.NewAdmission(serve.NewCostModel(), 1, 1),
		fan:   par.PerRun(runtime.GOMAXPROCS(0), 1), // the fleet's default fan-out at -workers 1
		steps: &stepTimer{},
	}
	for _, c := range serve.DefaultClasses() {
		if c.Name == serve.DefaultClassName {
			env.cls = c
		}
	}
	reqs := tracePrefix(s, pre.decompose)
	rows := make([]*traceRow, len(reqs))
	for k := range rows {
		rows[k] = &traceRow{us: map[string][]float64{}}
	}
	var wrong []string
	for rep := 0; rep < tracedReps; rep++ {
		for k, tr := range reqs {
			msgs, err := env.request(fmt.Sprintf("%s/%d#%d", s.name, k, rep), tr, rows[k], rep)
			if err != nil {
				return nil, nil, err
			}
			wrong = append(wrong, msgs...)
		}
	}
	for k, tr := range reqs {
		if err := countAllocs(rows[k], tr.req, env.ap, env.fan); err != nil {
			return nil, nil, err
		}
	}

	m, msgs, err := ledger(rows, env.steps.us)
	if err != nil {
		return nil, nil, err
	}
	wrong = append(wrong, msgs...)

	rm, rwrong, err := replayMetrics(ctx, s, pre.replay, env.t)
	if err != nil {
		return nil, nil, err
	}
	wrong = append(wrong, rwrong...)
	for k, v := range rm {
		m[k] = v
	}
	if err := writeSpans(outPath, s, env.t.snapshot()); err != nil {
		return nil, nil, err
	}
	return m, wrong, nil
}

// traceEnv is what the traced requests share: the arena pool, a result
// cache and an admission controller standing in for a backend's, the
// deployed scoring fan-out, and the timestep timer.
type traceEnv struct {
	t     *tracer
	ap    *core.ArenaPool
	cache *serve.Cache
	adm   *serve.Admission
	cls   serve.Class
	fan   int
	steps *stepTimer
}

// request traces repetition rep of one request as the backend would
// serve a miss: decode, canonicalize, key, cache lookup, admission,
// serve.ExecuteArena and, separately, its decomposition, encode, cache
// write, admission release; then the SLRH scoring comparison. It adds
// the span totals to row and returns any check failures.
func (e *traceEnv) request(rid string, tr traceReq, row *traceRow, rep int) ([]string, error) {
	root := e.t.begin(rid, 0, "request")
	defer e.t.end(root)
	sp := newSpanProbe(e.t, rid, root)
	defer func() {
		for name, v := range sp.total {
			row.us[name] = append(row.us[name], v)
		}
	}()

	id := sp.begin("serve.decode")
	var req serve.Request
	dec := json.NewDecoder(bytes.NewReader(tr.body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	sp.end(id)
	if err != nil {
		return nil, fmt.Errorf("decode traced request %s: %w", tr.body, err)
	}
	id = sp.begin("serve.canonical")
	c := req.Canonical()
	sp.end(id)
	id = sp.begin("serve.key")
	key := serve.CanonicalKey(req)
	sp.end(id)
	id = sp.begin("serve.cache")
	_, _ = e.cache.Get(key)
	sp.end(id)
	id = sp.begin("serve.admission")
	d := e.adm.Decide(c.Heuristic, c.N, e.cls)
	sp.end(id)

	// Each timed call starts from a freshly collected heap, so a
	// collection triggered by an earlier call's garbage lands in
	// neither; and the two alternate which runs first, so warm caches
	// favour neither.
	var out *serve.Outcome
	var res *serve.Result
	var pr *prepared
	runE := func() {
		runtime.GC()
		id := sp.begin("serve.ExecuteArena")
		out, err = serve.ExecuteArena(req, 0, e.fan, e.ap)
		sp.end(id)
	}
	runD := func() {
		runtime.GC()
		lid := sp.begin("ledger")
		dp := newSpanProbe(e.t, rid, lid)
		if pr, err = prepare(dp, req, e.fan); err == nil {
			res, err = execute(dp, pr, e.ap, e.steps)
		}
		sp.end(lid)
		sum := 0.0
		for name, v := range dp.total {
			row.us[name] = append(row.us[name], v)
			sum += v
		}
		row.us["decomposed"] = append(row.us["decomposed"], sum)
	}
	first, second := runE, runD
	if rep%2 == 1 {
		first, second = runD, runE
	}
	if first(); err == nil {
		second()
	}
	if err != nil {
		return nil, fmt.Errorf("traced request %+v: %w", req, err)
	}

	var body bytes.Buffer
	id = sp.begin("serve.encode")
	err = serve.EncodeResult(&body, res)
	sp.end(id)
	if err != nil {
		return nil, err
	}
	id = sp.begin("serve.cache")
	e.cache.Put(key, serve.CacheEntry{Body: body.Bytes()})
	sp.end(id)
	id = sp.begin("serve.admission")
	e.adm.Complete(d.Predicted)
	sp.end(id)

	var wrong []string
	if pr.slrh {
		if msg := timeScoring(sp, pr, e.ap); msg != "" {
			wrong = append(wrong, fmt.Sprintf("traced request %+v: %s", req, msg))
		}
	}
	if rep == 0 {
		row.slrh, row.steps = pr.slrh, out.Result.Steps
		var want bytes.Buffer
		if err := serve.EncodeResult(&want, out.Result); err != nil {
			return nil, err
		}
		if res.Metrics != out.Result.Metrics || !bytes.Equal(body.Bytes(), want.Bytes()) {
			wrong = append(wrong, fmt.Sprintf("ledger: decomposed result of %+v differs from serve.ExecuteArena's (metrics %+v vs %+v)",
				req, res.Metrics, out.Result.Metrics))
		}
	}
	return wrong, nil
}

// tracePrefix returns the first n distinct map requests of the stream
// with the bytes a backend receives for each: the op body for single
// requests, the router's re-encoding for batch items.
func tracePrefix(s *stream, n int) []traceReq {
	var out []traceReq
	seen := map[string]bool{}
	for i := 0; len(out) < n; i++ {
		p := s.at(i)
		for _, r := range p.reqs {
			key := serve.CanonicalKey(r)
			if seen[key] || len(out) == n {
				continue
			}
			seen[key] = true
			body := p.body
			if len(p.reqs) > 1 {
				b, err := json.Marshal(r)
				if err != nil {
					panic(err) // a serve.Request always marshals
				}
				body = b
			}
			out = append(out, traceReq{req: r, body: body})
		}
	}
	return out
}

// timeScoring times core.RunArena on the prepared instance with the
// deployed scoring fan-out and serially, recording both as spans; the
// two schedules must agree.
func timeScoring(sp *spanProbe, pr *prepared, ap *core.ArenaPool) string {
	a := ap.Get()
	defer ap.Put(a)
	serial := pr.cfg
	serial.PoolWorkers, serial.ScoreWorkers = 1, 1
	runtime.GC()
	id := sp.begin("par.fanout_run")
	rp, errp := core.RunArena(pr.inst, pr.cfg, a)
	sp.end(id)
	if errp != nil {
		return errp.Error()
	}
	mp := rp.Metrics
	runtime.GC()
	id = sp.begin("par.serial_run")
	rs, errs := core.RunArena(pr.inst, serial, a)
	sp.end(id)
	if errs != nil {
		return errs.Error()
	}
	if rs.Metrics != mp {
		return fmt.Sprintf("serial scoring gave %+v, fan-out %+v", rs.Metrics, mp)
	}
	return ""
}

// countAllocs runs the request once more under allocProbe: the heap
// allocations of serve.ExecuteArena as a whole and of each decomposed
// call, plus EncodeResult.
func countAllocs(row *traceRow, req serve.Request, ap *core.ArenaPool, fan int) error {
	p := newAllocProbe()
	id := p.begin("serve.ExecuteArena")
	_, err := serve.ExecuteArena(req, 0, fan, ap)
	p.end(id)
	if err != nil {
		return err
	}
	pr, err := prepare(p, req, fan)
	if err != nil {
		return err
	}
	res, err := execute(p, pr, ap, nil)
	if err != nil {
		return err
	}
	id = p.begin("serve.encode")
	err = serve.EncodeResult(io.Discard, res)
	p.end(id)
	row.allocs = p.total
	return err
}

// ledger turns the per-request rows into the traced per-layer metrics
// and checks that the decomposition covers serve.ExecuteArena.
func ledger(rows []*traceRow, stepUS []float64) (map[string]float64, []string, error) {
	var sumE, sumD, sumCore, sumPar, sumSer float64
	var nSLRH, nMaxmax, stepsTotal float64
	var coreMS, maxmaxMS, arenaUS, coreAllocs, maxmaxAllocs float64
	perReq := map[string]float64{}
	allocs := map[string]float64{}
	for _, r := range rows {
		sumE += r.best("serve.ExecuteArena")
		sumD += r.best("decomposed")
		sumCore += r.best("core.run") + r.best("maxmax.run")
		for _, name := range []string{"serve.decode", "serve.canonical", "serve.key", "serve.cache", "serve.admission",
			"workload.generate", "workload.instantiate", "sim.verify", "serve.encode"} {
			perReq[name] += r.best(name)
		}
		for _, name := range []string{"serve.ExecuteArena", "workload.generate", "workload.instantiate", "sim.verify", "serve.encode"} {
			allocs[name] += r.allocs[name]
		}
		if r.slrh {
			nSLRH++
			stepsTotal += float64(r.steps)
			coreMS += r.best("core.run") / 1e3
			arenaUS += r.best("core.arena")
			coreAllocs += r.allocs["core.run"]
			sumPar += r.best("par.fanout_run")
			sumSer += r.best("par.serial_run")
		} else {
			nMaxmax++
			maxmaxMS += r.best("maxmax.run") / 1e3
			maxmaxAllocs += r.allocs["maxmax.run"]
		}
	}
	n := float64(len(rows))
	p50, err := percentile(stepUS, 50)
	if err != nil {
		return nil, nil, fmt.Errorf("timestep p50: %w", err)
	}
	p99, err := percentile(stepUS, 99)
	if err != nil {
		return nil, nil, fmt.Errorf("timestep p99: %w", err)
	}
	coverage := pairedCoverage(rows)
	m := map[string]float64{
		"core.run_ms":                 ratio(coreMS, nSLRH),
		"core.timesteps":              ratio(stepsTotal, nSLRH),
		"core.timestep_us_p50":        p50,
		"core.timestep_us_p99":        p99,
		"core.run_allocs":             ratio(coreAllocs, nSLRH),
		"maxmax.run_ms":               ratio(maxmaxMS, nMaxmax),
		"maxmax.run_allocs":           ratio(maxmaxAllocs, nMaxmax),
		"par.score_speedup":           ratio(sumSer, sumPar),
		"core.share":                  ratio(sumCore, sumE),
		"core.arena_us":               ratio(arenaUS, nSLRH),
		"workload.generate_ms":        perReq["workload.generate"] / n / 1e3,
		"workload.instantiate_ms":     perReq["workload.instantiate"] / n / 1e3,
		"sim.verify_ms":               perReq["sim.verify"] / n / 1e3,
		"serve.encode_us":             perReq["serve.encode"] / n,
		"workload.generate_allocs":    allocs["workload.generate"] / n,
		"workload.instantiate_allocs": allocs["workload.instantiate"] / n,
		"sim.verify_allocs":           allocs["sim.verify"] / n,
		"serve.encode_allocs":         allocs["serve.encode"] / n,
		"serve.decode_us":             perReq["serve.decode"] / n,
		"serve.canonical_us":          perReq["serve.canonical"] / n,
		"serve.key_us":                perReq["serve.key"] / n,
		"serve.cache_us":              perReq["serve.cache"] / n,
		"serve.admission_us":          perReq["serve.admission"] / n,
		"serve.execute_allocs":        allocs["serve.ExecuteArena"] / n,
		"ledger.coverage":             coverage,
		"serve.other_ms":              (sumE - sumD) / n / 1e3,
	}
	var wrong []string
	if math.Abs(coverage-1) > coverageTolerance {
		wrong = append(wrong, fmt.Sprintf("ledger: decomposed spans cover %.3f of serve.ExecuteArena time, outside [%.1f, %.1f]",
			coverage, 1-coverageTolerance, 1+coverageTolerance))
	}
	return m, wrong, nil
}

// pairedCoverage is the median over repetitions of Σ decomposed spans ÷
// Σ serve.ExecuteArena. Within a repetition each request's two timings
// run back to back, so a slow spell of a shared host stretches both; the
// fastest repetitions of each, by contrast, may come from different
// moments, and their ratio strayed past the tolerance on quiet code.
func pairedCoverage(rows []*traceRow) float64 {
	var per []float64
	for r := 0; r < tracedReps; r++ {
		var d, e float64
		for _, row := range rows {
			d += row.us["decomposed"][r]
			e += row.us["serve.ExecuteArena"][r]
		}
		per = append(per, ratio(d, e))
	}
	return median(per)
}

// spanHeader carries the router's attempt span id to the backend
// handler, so the handler span can name its parent.
const spanHeader = "X-Bench-Span"

// hookSet holds the timing hooks of a traced in-process replay: a
// middleware around each backend handler and a transport under the
// router's client. Both attribute their spans to the op in flight.
type hookSet struct {
	t *tracer

	mu     sync.Mutex
	req    string
	root   int
	misses map[int]bool // handler spans that led a fresh computation
}

// open starts the client span of the next op.
func (h *hookSet) open(req string) {
	root := h.t.begin(req, 0, "client.op")
	h.mu.Lock()
	defer h.mu.Unlock()
	h.req, h.root = req, root
}

// close ends the current op's client span.
func (h *hookSet) close() {
	h.mu.Lock()
	root := h.root
	h.mu.Unlock()
	h.t.end(root)
}

func (h *hookSet) current() (string, int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.req, h.root
}

// wrap is the backend middleware: one serve.handler span per map
// request, parented on the attempt that carried it.
func (h *hookSet) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/map" {
			next.ServeHTTP(w, r)
			return
		}
		req, _ := h.current()
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		id := h.t.begin(req, parent, "serve.handler")
		next.ServeHTTP(w, r)
		h.t.end(id)
		if w.Header().Get("X-Cache") == "miss" {
			h.mu.Lock()
			h.misses[id] = true
			h.mu.Unlock()
		}
	})
}

// transport wraps the router's client transport: one fabric.attempt
// span per backend map POST, from send until the router closes the
// response body.
func (h *hookSet) transport(base http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/map" {
			return base.RoundTrip(r)
		}
		req, root := h.current()
		id := h.t.begin(req, root, "fabric.attempt")
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.Itoa(id))
		resp, err := base.RoundTrip(r)
		if err != nil {
			h.t.end(id)
			return nil, err
		}
		resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { h.t.end(id) }}
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// spanBody ends its span when the body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// replay sends the stream's first n ops serially through a fresh
// in-process fleet, with the timing hooks when t is non-nil. It returns
// the replay's wall time, what the client saw, the hooks, and the
// backends' summed /metrics after the replay.
func replay(ctx context.Context, s *stream, n int, t *tracer) (float64, *outcome, *hookSet, samples, error) {
	var h *hookSet
	var wrap func(http.Handler) http.Handler
	var rt func(http.RoundTripper) http.RoundTripper
	if t != nil {
		h = &hookSet{t: t, misses: map[int]bool{}}
		wrap, rt = h.wrap, h.transport
	}
	m, err := startMemFleet(wrap, rt)
	if err != nil {
		return 0, nil, nil, nil, err
	}
	defer m.stop()
	client := newClient(1)
	defer client.CloseIdleConnections()
	ops := make([]op, n)
	for i := range ops {
		ops[i] = s.at(i)
	}
	o := &outcome{}
	start := time.Now() //lint:wallclock replay wall time for trace.overhead_ratio
	for i, p := range ops {
		if h != nil {
			h.open(fmt.Sprintf("%s/replay/%d", s.name, i))
		}
		o.do(ctx, client, m.url, i, p, nil)
		if h != nil {
			h.close()
		}
	}
	wall := time.Since(start).Seconds() //lint:wallclock closes the replay wall-time pair
	regs := samples{}
	for _, srv := range m.servers {
		var buf bytes.Buffer
		if err := srv.Registry().WriteText(&buf); err != nil {
			return 0, nil, nil, nil, err
		}
		sm, err := parseMetrics(buf.Bytes())
		if err != nil {
			return 0, nil, nil, nil, err
		}
		regs = regs.plus(sm)
	}
	return wall, o, h, regs, nil
}

// replayMetrics replays the prefix through in-process fleets with the
// hooks off and on, twice each in alternation, and derives the router
// hop, handler and wait times from the hooked runs' spans.
func replayMetrics(ctx context.Context, s *stream, n int, t *tracer) (map[string]float64, []string, error) {
	var wrong []string
	var wallOff, wallOn float64
	var handlerUS, hopUS []float64
	var missUS, missRunUS, misses float64
	for pass := 0; pass < 4; pass++ {
		var tt *tracer
		if pass%2 == 1 {
			tt = t
		}
		first := len(t.snapshot())
		wall, o, h, regs, err := replay(ctx, s, n, tt)
		if err != nil {
			return nil, nil, err
		}
		for _, msg := range append(o.wrong, o.errs...) {
			wrong = append(wrong, "traced replay: "+msg)
		}
		if tt == nil {
			wallOff += wall
			continue
		}
		wallOn += wall
		spans := t.snapshot()[first:]
		byID := map[int]span{}
		handlerByReq := map[string]float64{}
		for _, sp := range spans {
			byID[sp.ID] = sp
		}
		for _, sp := range spans {
			if sp.Name != "serve.handler" {
				continue
			}
			d := sp.End - sp.Start
			handlerUS = append(handlerUS, d)
			handlerByReq[sp.Req] += d
			if h.misses[sp.ID] {
				missUS += d
				misses++
			}
			if s.name == batchSweep {
				if at, ok := byID[sp.Parent]; ok {
					hopUS = append(hopUS, (at.End-at.Start)-d)
				}
			}
		}
		if s.name != batchSweep {
			for i := range o.lat {
				hopUS = append(hopUS, o.lat[i]*1e3-handlerByReq[fmt.Sprintf("%s/replay/%d", s.name, i)])
			}
		}
		missRunUS += regs.sum("slrhd_run_seconds_sum") * 1e6
	}
	return map[string]float64{
		"fabric.hop_us":        mean(hopUS),
		"serve.handler_us":     mean(handlerUS),
		"serve.wait_ms_mean":   ratio(missUS-missRunUS, misses) / 1e3,
		"trace.overhead_ratio": ratio(wallOn, wallOff),
	}, wrong, nil
}

// writeSpans writes the trace document: every span of the traced run.
func writeSpans(path string, s *stream, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{s.name, s.seed, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
