package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"adhocgrid/internal/core"
)

// Config sizes the service. Zero values select the defaults noted per
// field.
type Config struct {
	// Workers caps concurrently executing runs (non-positive selects
	// GOMAXPROCS).
	Workers int
	// QueueSize bounds runs accepted but not yet executing; an arriving
	// request that finds the queue full is refused with 429. Zero selects
	// the default of 64; a negative value means zero queue slots, so every
	// submission requires an idle worker.
	QueueSize int
	// CacheSize bounds the result cache, in responses (non-positive
	// selects the default of 1024).
	CacheSize int
	// RunHistory bounds retained trace documents, in runs (non-positive
	// selects the default of 256).
	RunHistory int
	// MaxN caps the accepted problem size |T| (zero selects the default
	// of 2048; negative disables the cap).
	MaxN int
	// Classes is the service-class set steering admission (nil or empty
	// selects DefaultClasses). Requests select a class by name via their
	// "class" field; classes never alter response bytes.
	Classes []Class
}

// withDefaults resolves zero fields. The contract per field is spelled
// out on Config; notably QueueSize < 0 is an explicit "no queue slots",
// not an error and not the default.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueSize == 0 {
		c.QueueSize = 64
	} else if c.QueueSize < 0 {
		c.QueueSize = 0
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 1024
	}
	if c.RunHistory <= 0 {
		c.RunHistory = 256
	}
	if c.MaxN == 0 {
		c.MaxN = 2048
	} else if c.MaxN < 0 {
		c.MaxN = 0
	}
	if len(c.Classes) == 0 {
		c.Classes = DefaultClasses()
	}
	return c
}

// retryFloor is the floor of the Retry-After hint on 429, in seconds.
// The admission model derives larger hints from predicted backlog; this
// floor is all a cold model can offer.
const retryFloor = 1

// mapStatusCodes is the fixed set of statuses the map endpoint can
// answer with; slrhd_map_requests_total carries one series per entry.
var mapStatusCodes = []int{http.StatusOK, http.StatusBadRequest, http.StatusTooManyRequests, http.StatusInternalServerError}

// heuristicNames indexes the per-heuristic metric series.
var heuristicNames = []string{"slrh1", "slrh2", "slrh3", "maxmax"}

// heuristicIndex maps a canonical heuristic name to its series index.
func heuristicIndex(h string) int {
	for i, name := range heuristicNames {
		if name == h {
			return i
		}
	}
	return len(heuristicNames) - 1 // unreachable for validated requests
}

// flight is one in-flight computation of a canonical request key. The
// first request for a key becomes the leader and owns the execution;
// identical requests arriving before it completes join as waiters, so
// the duplicate compute the cache check raced past never happens.
// waiters counts clients still interested in the result — a queued job
// whose waiters have all disconnected is skipped without burning a
// worker.
type flight struct {
	done    chan struct{}
	waiters atomic.Int64
	entry   CacheEntry
	err     error
}

// shedError carries a model-derived Retry-After to every waiter of a
// shed flight.
type shedError struct {
	retry int
	msg   string
}

func (e *shedError) Error() string { return e.msg }

// Response dispositions, surfaced in the X-Cache header.
const (
	dispositionHit       = "hit"       // served from the result cache
	dispositionMiss      = "miss"      // leader of a fresh computation
	dispositionCoalesced = "coalesced" // waited on another request's computation
)

// Server is the slrhd scheduling service: handlers plus the worker
// pool, result cache, trace cache, admission model and metrics
// registry behind them.
type Server struct {
	cfg       Config
	pool      *runPool
	cache     *Cache
	traces    *Cache // run id -> serialized trace.Document, in Body
	reg       *Registry
	model     *CostModel
	admission *Admission
	arenas    *core.ArenaPool
	runSeq    atomic.Uint64
	draining  atomic.Bool

	flightMu sync.Mutex
	flights  map[string]*flight

	mapRequests []*Counter // parallel to mapStatusCodes
	cacheHits   *Counter
	cacheMisses *Counter
	coalesced   *Counter
	mapCanceled *Counter
	runsSkipped *Counter
	shedTotal   []*Counter // parallel to shedReasons
	inflight    *Gauge
	runsTotal   []*Counter   // parallel to heuristicNames
	runSeconds  []*Histogram // wall time of the whole job, per heuristic
	heurSeconds []*Histogram // heuristic-reported time, per heuristic
	predSeconds []*Histogram // admission-predicted cost, per heuristic
	predRatio   []*Histogram // predicted/actual calibration, per heuristic
	runErrors   *Counter
	writeErrors *Counter
}

// PredictionRatioBuckets bracket predicted/actual = 1 so calibration
// drift is visible on either side.
var PredictionRatioBuckets = []float64{0.25, 0.5, 0.75, 0.9, 1.1, 1.25, 1.5, 2, 4}

// New builds a server and starts its worker pool. Call Close to drain.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	model := NewCostModel()
	s := &Server{
		cfg:       cfg,
		pool:      newRunPool(cfg.Workers, cfg.QueueSize, priorityBands(cfg.Classes)),
		cache:     NewCache(cfg.CacheSize),
		traces:    NewCache(cfg.RunHistory),
		reg:       NewRegistry(),
		model:     model,
		admission: NewAdmission(model, cfg.Workers, retryFloor),
		arenas:    core.NewArenaPool(),
		flights:   make(map[string]*flight),
	}
	for _, code := range mapStatusCodes {
		s.mapRequests = append(s.mapRequests,
			s.reg.Counter("slrhd_map_requests_total", fmt.Sprintf(`code="%d"`, code),
				"POST /v1/map requests answered, by status code"))
	}
	s.cacheHits = s.reg.Counter("slrhd_cache_hits_total", "", "map requests served from the result cache")
	s.cacheMisses = s.reg.Counter("slrhd_cache_misses_total", "", "map requests that led a fresh computation")
	s.coalesced = s.reg.Counter("slrhd_coalesced_total", "", "map requests served by joining an identical in-flight computation")
	s.mapCanceled = s.reg.Counter("slrhd_map_canceled_total", "", "map requests whose client disconnected before the response")
	s.runsSkipped = s.reg.Counter("slrhd_runs_skipped_total", "", "queued runs skipped because every waiting client disconnected")
	for _, reason := range shedReasons {
		s.shedTotal = append(s.shedTotal,
			s.reg.Counter("slrhd_shed_total", `reason="`+reason+`"`,
				"admission sheds, by reason (cost = predicted completion over class target, queue = run queue full)"))
	}
	s.reg.GaugeFunc("slrhd_cache_entries", "", "resident result-cache entries",
		func() float64 { return float64(s.cache.Len()) })
	s.reg.GaugeFunc("slrhd_queue_depth", "", "runs accepted but not yet executing",
		func() float64 { return float64(s.pool.Depth()) })
	s.inflight = s.reg.Gauge("slrhd_inflight_runs", "", "runs currently executing")
	s.reg.GaugeFunc("slrhd_backlog_predicted_seconds", "", "predicted cost of admitted-but-unfinished work",
		func() float64 { return s.admission.Backlog() })
	for _, h := range heuristicNames {
		labels := `heuristic="` + h + `"`
		s.runsTotal = append(s.runsTotal,
			s.reg.Counter("slrhd_runs_total", labels, "completed runs, by heuristic"))
		s.runSeconds = append(s.runSeconds,
			s.reg.Histogram("slrhd_run_seconds", labels,
				"wall time of one run job (generate + map + verify + encode)", DefaultLatencyBuckets))
		s.heurSeconds = append(s.heurSeconds,
			s.reg.Histogram("slrhd_heuristic_seconds", labels,
				"heuristic-reported mapping time (the paper's Fig 6 quantity)", DefaultLatencyBuckets))
		s.predSeconds = append(s.predSeconds,
			s.reg.Histogram("slrhd_predicted_seconds", labels,
				"admission-predicted run cost at decision time", DefaultLatencyBuckets))
		s.predRatio = append(s.predRatio,
			s.reg.Histogram("slrhd_prediction_ratio", labels,
				"predicted/actual run cost (model calibration; 1 is perfect)", PredictionRatioBuckets))
		s.reg.GaugeFunc("slrhd_model_alpha_seconds", labels, "fitted fixed cost of one run",
			func() float64 { alpha, _, _ := s.model.Coefficients(h); return alpha })
		s.reg.GaugeFunc("slrhd_model_beta_seconds", labels, "fitted per-subtask cost of one run",
			func() float64 { _, beta, _ := s.model.Coefficients(h); return beta })
		s.reg.GaugeFunc("slrhd_model_observations", labels, "observation weight behind the fitted cost model",
			func() float64 { _, _, w := s.model.Coefficients(h); return w })
	}
	s.runErrors = s.reg.Counter("slrhd_run_errors_total", "", "runs that failed with an internal error")
	s.writeErrors = s.reg.Counter("slrhd_response_write_errors_total", "", "response bodies that failed mid-write")
	return s
}

// Registry exposes the metrics registry (for tests and extensions).
func (s *Server) Registry() *Registry { return s.reg }

// BeginDrain flips readiness off: /readyz starts failing so load
// balancers stop routing here, while in-flight and queued work keeps
// running. Call before shutting down the HTTP listener.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Close drains the worker pool: admission stops, every accepted job
// runs to completion, and the workers exit. Safe to call repeatedly.
func (s *Server) Close() {
	s.draining.Store(true)
	s.pool.Close()
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/map", s.handleMap)
	mux.HandleFunc("GET /v1/runs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/capacity", s.handleCapacity)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

// countMap records one map-endpoint response.
func (s *Server) countMap(code int) {
	for i, c := range mapStatusCodes {
		if c == code {
			s.mapRequests[i].Inc()
			return
		}
	}
}

// write sends b, absorbing client-side write failures into a counter
// (the response cannot be repaired once streaming began).
func (s *Server) write(w http.ResponseWriter, b []byte) {
	if _, err := w.Write(b); err != nil {
		s.writeErrors.Inc()
	}
}

// jsonError answers any endpoint with a JSON error body.
func (s *Server) jsonError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	b, err := json.Marshal(struct {
		Error string `json:"error"`
	}{msg})
	if err != nil {
		s.writeErrors.Inc()
		return
	}
	s.write(w, append(b, '\n'))
}

// mapError answers the map endpoint with a JSON error, counting it.
func (s *Server) mapError(w http.ResponseWriter, code int, msg string) {
	s.countMap(code)
	s.jsonError(w, code, msg)
}

// writeCached answers the map endpoint with a (possibly fresh) cache
// entry.
func (s *Server) writeCached(w http.ResponseWriter, e CacheEntry, disposition string) {
	s.countMap(http.StatusOK)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", disposition)
	w.Header().Set("X-Run-Id", e.RunID)
	s.write(w, e.Body)
}

// handleMap prices and maps one scenario: decode, resolve the service
// class, check the cache, coalesce onto an identical in-flight
// computation or lead a new one through cost-predictive admission,
// then respond. The admission verdict and the singleflight layer only
// decide whether and when the job runs — the response bytes remain a
// pure function of the canonical request.
func (s *Server) handleMap(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		s.mapError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	// The class is admission metadata, resolved here and erased by
	// Canonical so every class shares one cache entry per scenario.
	cls, err := s.cfg.classFor(req.Class)
	if err != nil {
		s.mapError(w, http.StatusBadRequest, err.Error())
		return
	}
	req = req.Canonical()
	if err := req.Validate(s.cfg.MaxN); err != nil {
		s.mapError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := req.Key()
	if e, ok := s.cache.Get(key); ok {
		s.cacheHits.Inc()
		s.writeCached(w, e, dispositionHit)
		return
	}
	// Singleflight: identical requests racing past the cache check
	// coalesce onto one computation instead of each burning a worker.
	s.flightMu.Lock()
	if f, ok := s.flights[key]; ok {
		// Handoff: released by awaitFlight's cancel path or consumed when finishFlight closes done
		f.waiters.Add(1)
		s.flightMu.Unlock()
		s.awaitFlight(w, r, f, dispositionCoalesced)
		return
	}
	f := &flight{done: make(chan struct{})}
	// Handoff: the leader's ref; released by awaitFlight's cancel path or consumed when finishFlight closes done
	f.waiters.Store(1)
	s.flights[key] = f
	s.flightMu.Unlock()

	// Handoff: admitted cost leaves the backlog via Complete in runJob (or below, on submit refusal)
	d := s.admission.Decide(req.Heuristic, req.N, cls)
	if !d.Admit {
		s.shedTotal[d.Reason].Inc()
		s.finishFlight(key, f, CacheEntry{}, &shedError{
			retry: d.RetryAfterSeconds,
			msg: fmt.Sprintf("predicted completion %.2fs exceeds class %q target %.2fs; retry later",
				d.Wait+d.Predicted, cls.Name, cls.TargetSeconds),
		})
		s.awaitFlight(w, r, f, dispositionMiss)
		return
	}
	if !s.pool.TrySubmitPriority(s.runJob(key, f, req, d), cls.Priority) {
		s.admission.Complete(d.Predicted)
		s.shedTotal[shedQueue].Inc()
		s.finishFlight(key, f, CacheEntry{}, &shedError{
			retry: s.admission.QueueRetry(),
			msg:   "run queue full; retry later",
		})
	}
	s.awaitFlight(w, r, f, dispositionMiss)
}

// runJob packages one admitted request as a pool job: skip if every
// waiter disconnected while it was queued, otherwise execute, cache,
// and release the flight.
func (s *Server) runJob(key string, f *flight, req Request, d Decision) func() {
	return func() {
		if f.waiters.Load() == 0 {
			// Every client that wanted this result hung up while the job
			// waited its turn: don't burn the worker on a dead request.
			s.runsSkipped.Inc()
			s.admission.Complete(d.Predicted)
			s.finishFlight(key, f, CacheEntry{}, &shedError{
				retry: retryFloor,
				msg:   "run skipped after every waiting client disconnected",
			})
			return
		}
		entry, err := s.executeJob(req, d.Predicted)
		s.admission.Complete(d.Predicted)
		if err == nil {
			// The leader may be gone; caching here keeps the work useful
			// for whoever asks next, and last-Put-wins is safe because
			// recomputed bodies are byte-identical by determinism.
			s.cache.Put(key, entry)
		} else {
			var reqErr *RequestError
			if !errors.As(err, &reqErr) {
				s.runErrors.Inc()
			}
		}
		s.finishFlight(key, f, entry, err)
	}
}

// finishFlight publishes a flight's outcome and retires it from the
// in-flight table. Requests arriving after this point start fresh (and
// normally hit the cache the flight just filled).
func (s *Server) finishFlight(key string, f *flight, entry CacheEntry, err error) {
	f.entry, f.err = entry, err
	s.flightMu.Lock()
	delete(s.flights, key)
	s.flightMu.Unlock()
	close(f.done)
}

// awaitFlight parks one client on a flight until the result is ready
// or the client disconnects. Disconnected clients deregister their
// interest — a job whose waiter count reaches zero before it starts is
// skipped — and are counted in slrhd_map_canceled_total. Exactly one
// of {hit, miss, coalesced} is counted per 200 response, so
// hits+misses+coalesced always reconciles with the 200 counter.
func (s *Server) awaitFlight(w http.ResponseWriter, r *http.Request, f *flight, disposition string) {
	select {
	case <-f.done:
	case <-r.Context().Done():
		f.waiters.Add(-1)
		s.mapCanceled.Inc()
		return
	}
	if f.err == nil {
		if disposition == dispositionMiss {
			s.cacheMisses.Inc()
		} else {
			s.coalesced.Inc()
		}
		s.writeCached(w, f.entry, disposition)
		return
	}
	var shed *shedError
	var reqErr *RequestError
	switch {
	case errors.As(f.err, &shed):
		w.Header().Set("Retry-After", strconv.Itoa(shed.retry))
		s.mapError(w, http.StatusTooManyRequests, f.err.Error())
	case errors.As(f.err, &reqErr):
		s.mapError(w, http.StatusBadRequest, f.err.Error())
	default:
		s.mapError(w, http.StatusInternalServerError, f.err.Error())
	}
}

// executeJob runs one admitted request inside a pool worker and
// packages the response bytes and trace document. predicted is the
// admission model's cost estimate for this run (zero when the model was
// cold), recorded against the measured wall time so calibration is
// observable.
func (s *Server) executeJob(req Request, predicted float64) (CacheEntry, error) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	runID := fmt.Sprintf("r%08d", s.runSeq.Add(1))
	start := time.Now() //lint:wallclock elapsed-time reporting for the latency histograms and the admission cost model; never a scheduling input
	out, err := ExecuteArena(req, s.cfg.MaxN, 0, s.arenas)
	wall := time.Since(start).Seconds() //lint:wallclock closes the latency-report pair above
	if err != nil {
		return CacheEntry{}, err
	}
	h := heuristicIndex(req.Heuristic)
	s.runsTotal[h].Inc()
	s.runSeconds[h].Observe(wall)
	s.heurSeconds[h].Observe(out.Elapsed)
	s.model.Observe(req.Heuristic, req.N, wall)
	if predicted > 0 {
		s.predSeconds[h].Observe(predicted)
		if wall > 0 {
			s.predRatio[h].Observe(predicted / wall)
		}
	}
	var buf bytes.Buffer
	if err := EncodeResult(&buf, out.Result); err != nil {
		return CacheEntry{}, err
	}
	if out.Trace != nil {
		var tb bytes.Buffer
		if err := out.Trace.WriteJSON(&tb); err != nil {
			return CacheEntry{}, err
		}
		s.traces.Put(runID, CacheEntry{Body: tb.Bytes()})
	}
	return CacheEntry{Body: buf.Bytes(), RunID: runID}, nil
}

// handleTrace serves a retained run's trace document.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	e, ok := s.traces.Get(r.PathValue("id"))
	if !ok {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		s.write(w, []byte(`{"error":"unknown run id, trace not captured, or trace evicted"}`+"\n"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.write(w, e.Body)
}

// handleMetrics scrapes the registry in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var buf bytes.Buffer
	if err := s.reg.WriteText(&buf); err != nil {
		// bytes.Buffer writes cannot fail; guard kept for errdrop honesty.
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	s.write(w, buf.Bytes())
}

// handleHealthz reports liveness: the process is up.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.write(w, []byte("ok\n"))
}

// handleReadyz reports readiness: drain flips it to 503 so balancers
// stop routing new work here while accepted runs finish.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		s.write(w, []byte("draining\n"))
		return
	}
	s.write(w, []byte("ready\n"))
}
