package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"adhocgrid/internal/serve"
)

// Config sizes the router. Zero values select the defaults noted per
// field.
type Config struct {
	// Backends is the initial slrhd fleet, as base URLs
	// ("http://host:port"). At least one is required; the live fleet
	// can then grow and shrink through the members API.
	Backends []string
	// Replicas is the virtual-node count per backend on the hash ring
	// (non-positive selects DefaultReplicas).
	Replicas int
	// Window caps in-flight batch items per home backend (non-positive
	// selects 4). Single /v1/map requests are not windowed — the
	// backend's own admission control is the authority there.
	Window int
	// Retries is how many extra attempts each candidate backend gets
	// before the router fails over to its ring successor (negative
	// selects 0; zero selects the default of 1).
	Retries int
	// BackoffBase is the first retry delay; subsequent attempts double
	// it and add deterministic jitter (non-positive selects 25ms).
	BackoffBase time.Duration
	// ProbeInterval is the health-probe cadence (non-positive selects 2s).
	ProbeInterval time.Duration
	// MaxBatchItems bounds one batch request after sweep expansion
	// (non-positive selects 1024).
	MaxBatchItems int
	// AttemptTimeout bounds each individual backend attempt, distinct
	// from the client's end-to-end deadline: a blackholed backend burns
	// at most this long before the walk moves to the next candidate
	// (non-positive selects 10s).
	AttemptTimeout time.Duration
	// BreakerThreshold is how many consecutive exhausted candidate
	// walks trip a backend's circuit breaker open (non-positive
	// selects 1 — the first full failure opens it).
	BreakerThreshold int
	// RetryBudgetRatio is the fraction of a retry token each incoming
	// request deposits into the fleet-wide budget (zero selects 0.2;
	// negative disables deposits).
	RetryBudgetRatio float64
	// RetryBudgetBurst caps banked retry tokens; the bucket starts
	// full (zero selects 10; negative selects 0 — every extra attempt
	// is refused).
	RetryBudgetBurst int
	// Client issues backend requests (nil selects a client with no
	// overall timeout — per-request contexts bound the wait).
	Client *http.Client
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = DefaultReplicas
	}
	if c.Window <= 0 {
		c.Window = 4
	}
	if c.Retries == 0 {
		c.Retries = 1
	} else if c.Retries < 0 {
		c.Retries = 0
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 25 * time.Millisecond
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 1024
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 10 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 1
	}
	if c.RetryBudgetRatio == 0 {
		c.RetryBudgetRatio = 0.2
	} else if c.RetryBudgetRatio < 0 {
		c.RetryBudgetRatio = 0
	}
	if c.RetryBudgetBurst == 0 {
		c.RetryBudgetBurst = 10
	} else if c.RetryBudgetBurst < 0 {
		c.RetryBudgetBurst = 0
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// routerStatusCodes is the fixed label set of slrhrouter_map_requests_total:
// the backend's own map statuses plus the router's 503 (walk exhausted,
// no backend reachable), 429 (retry budget refused the walk) and 400
// (undecodable body).
var routerStatusCodes = []int{
	http.StatusOK, http.StatusBadRequest, http.StatusTooManyRequests,
	http.StatusInternalServerError, http.StatusServiceUnavailable,
}

// member is one backend's long-lived router-side state: its batch
// window and its routed counter. Member structs outlive membership —
// a backend that leaves and rejoins gets its original struct back, so
// metric series are never registered twice and window tokens are never
// duplicated.
type member struct {
	url    string
	sem    chan struct{}
	routed *serve.Counter
}

// fleetView is one immutable snapshot of the fleet: the ring and the
// member set it hashes over. Requests load the current view once and
// route entirely within it, so a concurrent join or leave swaps the
// pointer without ever mutating state a request is reading — routing
// lands on a member of the ring either before or after the change,
// never on a torn one.
type fleetView struct {
	ring    *Ring
	members []string // sorted backend URLs (== ring.Members())
	byURL   map[string]*member
}

// Router is the stateless fabric tier: it owns no schedule state, only
// the ring, the breaker view, and counters — everything it serves comes
// from the slrhd backends, whose responses are byte-identical for the
// same canonical request no matter which instance answers (DESIGN.md
// §12). Routing by canonical key is therefore purely a cache-affinity
// optimization, and failover to a ring successor is invisible in the
// response bytes (asserted by the package tests, with and without
// injected faults).
type Router struct {
	cfg      Config
	health   *Health
	budget   *Budget
	reg      *serve.Registry
	draining atomic.Bool

	view         atomic.Pointer[fleetView]
	memberMu     sync.Mutex         // serializes membership changes
	known        map[string]*member // every URL ever admitted (guarded by memberMu)
	lastCapacity atomic.Pointer[FleetCapacityReport]

	mapRequests    []*serve.Counter // parallel to routerStatusCodes
	batchRequests  []*serve.Counter // parallel to routerStatusCodes
	failovers      *serve.Counter
	retriesTotal   *serve.Counter
	budgetRejects  *serve.Counter
	memberChanges  *serve.Counter
	batchItemsOK   *serve.Counter
	batchItemsErr  *serve.Counter
	batchItemsCanc *serve.Counter
	capRequests    *serve.Counter
	writeErrors    *serve.Counter
	batchInflight  *serve.Gauge
}

// New builds a router over an initial backend fleet and starts its
// health prober. Call Close to retire it.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("fabric: at least one backend is required")
	}
	backends := append([]string(nil), cfg.Backends...)
	sort.Strings(backends)
	for i := 1; i < len(backends); i++ {
		if backends[i] == backends[i-1] {
			return nil, fmt.Errorf("fabric: duplicate backend %q", backends[i])
		}
	}
	rt := &Router{
		cfg:    cfg,
		health: NewHealth(backends, cfg.Client, cfg.ProbeInterval, cfg.Retries, cfg.BackoffBase, cfg.BreakerThreshold),
		budget: NewBudget(cfg.RetryBudgetRatio, cfg.RetryBudgetBurst),
		reg:    serve.NewRegistry(),
		known:  make(map[string]*member),
	}
	for _, code := range routerStatusCodes {
		rt.mapRequests = append(rt.mapRequests,
			rt.reg.Counter("slrhrouter_map_requests_total", fmt.Sprintf(`code="%d"`, code),
				"routed POST /v1/map requests answered, by status code"))
		rt.batchRequests = append(rt.batchRequests,
			rt.reg.Counter("slrhrouter_batch_requests_total", fmt.Sprintf(`code="%d"`, code),
				"POST /v1/map/batch requests answered, by status code"))
	}
	view := &fleetView{ring: NewRing(cfg.Replicas), byURL: make(map[string]*member, len(backends))}
	for _, b := range backends {
		view.ring.Add(b)
		view.byURL[b] = rt.newMember(b)
	}
	view.members = view.ring.Members()
	rt.view.Store(view)
	rt.failovers = rt.reg.Counter("slrhrouter_failovers_total", "",
		"requests answered by a ring successor after their home backend failed")
	rt.retriesTotal = rt.reg.Counter("slrhrouter_retries_total", "",
		"same-backend retry attempts after a transport failure")
	rt.budgetRejects = rt.reg.Counter("slrhrouter_retry_budget_rejects_total", "",
		"attempts refused because the fleet-wide retry budget was exhausted")
	rt.memberChanges = rt.reg.Counter("slrhrouter_membership_changes_total", "",
		"joins and leaves applied to the live ring")
	rt.batchItemsOK = rt.reg.Counter("slrhrouter_batch_items_total", `status="ok"`,
		"batch items answered 200")
	rt.batchItemsErr = rt.reg.Counter("slrhrouter_batch_items_total", `status="error"`,
		"batch items answered with any non-200 status")
	rt.batchItemsCanc = rt.reg.Counter("slrhrouter_batch_items_total", `status="canceled"`,
		"batch items abandoned because the client disconnected mid-batch")
	rt.capRequests = rt.reg.Counter("slrhrouter_capacity_requests_total", "",
		"fleet capacity aggregations served")
	rt.writeErrors = rt.reg.Counter("slrhrouter_response_write_errors_total", "",
		"response bodies that failed mid-write")
	rt.batchInflight = rt.reg.Gauge("slrhrouter_batch_inflight_items", "",
		"batch items currently in flight against backends")
	rt.reg.GaugeFunc("slrhrouter_backends", "", "current fleet size",
		func() float64 { return float64(len(rt.currentView().members)) })
	rt.reg.GaugeFunc("slrhrouter_backends_up", "", "backends whose breaker currently admits traffic",
		func() float64 { return float64(rt.health.UpCount()) })
	rt.reg.GaugeFunc("slrhrouter_retry_budget_tokens", "", "retry tokens currently banked",
		func() float64 { return rt.budget.Tokens() })
	rt.health.Start()
	return rt, nil
}

// newMember finds or creates a backend's long-lived member struct,
// registering its per-backend series exactly once per unique URL.
// Callers serialize through New or memberMu.
func (rt *Router) newMember(url string) *member {
	if m, ok := rt.known[url]; ok {
		return m
	}
	sem := make(chan struct{}, rt.cfg.Window)
	for i := 0; i < rt.cfg.Window; i++ {
		sem <- struct{}{}
	}
	labels := fmt.Sprintf(`backend=%q`, url)
	m := &member{
		url: url,
		sem: sem,
		routed: rt.reg.Counter("slrhrouter_routed_total", labels,
			"requests answered, by backend"),
	}
	rt.reg.GaugeFunc("slrhrouter_backend_up", labels,
		"breaker admission of the backend (1 = closed or half-open; 0 while open or departed)",
		func() float64 {
			if rt.health.Up(url) {
				return 1
			}
			return 0
		})
	rt.known[url] = m
	return m
}

// currentView loads the live fleet snapshot.
func (rt *Router) currentView() *fleetView { return rt.view.Load() }

// Registry exposes the metrics registry (for tests and extensions).
func (rt *Router) Registry() *serve.Registry { return rt.reg }

// Ring exposes the current view's hash ring (immutable).
func (rt *Router) Ring() *Ring { return rt.currentView().ring }

// Health exposes the breaker view.
func (rt *Router) Health() *Health { return rt.health }

// Members returns the current fleet, sorted.
func (rt *Router) Members() []string {
	return append([]string(nil), rt.currentView().members...)
}

// BeginDrain flips readiness off so load balancers stop routing here;
// in-flight proxying continues.
func (rt *Router) BeginDrain() { rt.draining.Store(true) }

// Close retires the health prober. Safe to call repeatedly.
func (rt *Router) Close() { rt.health.Stop() }

// Handler returns the router's HTTP routes: the slrhd surface it
// proxies plus the fabric-only batch, fleet-capacity and membership
// endpoints.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/map", rt.handleMap)
	mux.HandleFunc("POST /v1/map/batch", rt.handleBatch)
	mux.HandleFunc("GET /v1/runs/{id}/trace", rt.handleTrace)
	mux.HandleFunc("GET /v1/capacity", rt.handleCapacity)
	mux.HandleFunc("GET /v1/members", rt.handleMembersList)
	mux.HandleFunc("POST /v1/members", rt.handleMemberJoin)
	mux.HandleFunc("DELETE /v1/members", rt.handleMemberLeave)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /readyz", rt.handleReadyz)
	return mux
}

// count records one response in a per-code counter family.
func count(counters []*serve.Counter, code int) {
	for i, c := range routerStatusCodes {
		if c == code {
			counters[i].Inc()
			return
		}
	}
}

// write sends b, absorbing client-side write failures into a counter.
func (rt *Router) write(w http.ResponseWriter, b []byte) {
	if _, err := w.Write(b); err != nil {
		rt.writeErrors.Inc()
	}
}

// jsonError answers with a JSON error body.
func (rt *Router) jsonError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	b, err := json.Marshal(struct {
		Error string `json:"error"`
	}{msg})
	if err != nil {
		rt.writeErrors.Inc()
		return
	}
	rt.write(w, append(b, '\n'))
}

// proxied is one backend answer: the verbatim response bytes plus the
// headers the fabric forwards and the backend that produced them.
type proxied struct {
	Status  int
	Body    []byte
	Backend string
	Header  http.Header
}

// forwardedHeaders are the backend response headers the router passes
// through to the client.
var forwardedHeaders = []string{"Content-Type", "X-Cache", "X-Run-Id", "Retry-After"}

// ExhaustedError reports a walk that ran out of candidates: every
// backend either refused the connection or timed out its attempts.
type ExhaustedError struct {
	Attempts int
	Err      error
}

func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("fleet unavailable after %d attempts: %v", e.Attempts, e.Err)
}

func (e *ExhaustedError) Unwrap() error { return e.Err }

// forward POSTs body to the canonical key's home backend and, on
// failure, walks the ring successors. Each candidate gets 1+Retries
// attempts separated by jittered exponential backoff, each attempt
// individually bounded by AttemptTimeout so a blackholed backend never
// consumes the client's whole deadline. Candidates whose breaker
// refuses admission are skipped on the first pass and reconsidered on
// a second (last-resort availability). A request's first attempt is
// free; every further attempt spends a fleet-wide retry-budget token,
// and an empty bucket fails the walk fast with a BudgetError. Any
// response below 500 is authoritative and ends the walk; a 5xx is
// treated as a failed candidate, but the last one seen is returned
// verbatim — headers included — if the walk exhausts without a better
// answer. Byte-parity makes all of this safe: a re-routed request
// returns exactly the bytes the home backend would have produced.
func (rt *Router) forward(ctx context.Context, path string, body []byte, key string) (*proxied, error) {
	view := rt.currentView()
	rt.budget.Deposit()
	cands := view.ring.Successors(key, view.ring.Len())
	attempts := 0
	var lastErr error
	var last5xx *proxied
	for pass := 0; pass < 2; pass++ {
		for ci, backend := range cands {
			if pass == 0 && !rt.health.Allow(backend) {
				continue
			}
			for attempt := 0; attempt <= rt.cfg.Retries; attempt++ {
				if attempt > 0 {
					rt.retriesTotal.Inc()
					if err := rt.sleep(ctx, jitteredBackoff(rt.cfg.BackoffBase, key+"|"+backend, attempt-1)); err != nil {
						return nil, err
					}
				}
				if attempts > 0 && !rt.budget.TrySpend() {
					rt.budgetRejects.Inc()
					if last5xx != nil {
						return rt.deliver(view, last5xx, false), nil
					}
					return nil, &BudgetError{Attempts: attempts}
				}
				attempts++
				res, err := rt.attempt(ctx, backend, path, body)
				if err != nil {
					lastErr = err
					if ctx.Err() != nil {
						return nil, ctx.Err()
					}
					continue
				}
				if res.Status >= http.StatusInternalServerError {
					// A 5xx is a routing failure (retryable: any healthy
					// peer computes the same bytes), but keep it — if the
					// whole walk fails it is the most honest answer.
					last5xx = res
					lastErr = fmt.Errorf("backend %s answered %d", backend, res.Status)
					break
				}
				rt.health.OnSuccess(backend)
				return rt.deliver(view, res, ci > 0 || pass > 0), nil
			}
			rt.health.OnFailure(backend)
		}
	}
	if last5xx != nil {
		return rt.deliver(view, last5xx, false), nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no backend reachable")
	}
	return nil, &ExhaustedError{Attempts: attempts, Err: lastErr}
}

// deliver books the accounting for a response the walk settled on.
func (rt *Router) deliver(view *fleetView, res *proxied, failedOver bool) *proxied {
	if failedOver {
		rt.failovers.Inc()
	}
	if m := view.byURL[res.Backend]; m != nil {
		m.routed.Inc()
	}
	return res
}

// attempt issues one backend POST under the per-attempt timeout.
func (rt *Router) attempt(ctx context.Context, backend, path string, body []byte) (*proxied, error) {
	actx, cancel := context.WithTimeout(ctx, rt.cfg.AttemptTimeout)
	defer cancel()
	return rt.post(actx, backend, path, body)
}

// post issues one backend POST and captures the full response.
func (rt *Router) post(ctx context.Context, backend, path string, body []byte) (*proxied, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, backend+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	b, err := readBody(resp)
	if err != nil {
		return nil, err
	}
	return &proxied{Status: resp.StatusCode, Body: b, Backend: backend, Header: resp.Header}, nil
}

// sleep pauses for the backoff delay, cancellable by the request
// context.
func (rt *Router) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d) //lint:wallclock retry-backoff pacing against live backends; never a scheduling input
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// synthRetryAfter derives a Retry-After hint for router-local refusals
// from the last fleet capacity report, mirroring the per-instance
// admission math (backlog seconds per worker, clamped to [1, 600]); a
// router that has not aggregated capacity yet answers the one-second
// floor.
func (rt *Router) synthRetryAfter() string {
	secs := 1
	if rep := rt.lastCapacity.Load(); rep != nil && rep.Workers > 0 {
		secs = int(math.Ceil(rep.BacklogSeconds / float64(rep.Workers)))
		if secs < 1 {
			secs = 1
		}
		if secs > 600 {
			secs = 600
		}
	}
	return strconv.Itoa(secs)
}

// failErr maps a forward error onto the wire: budget refusals are 429,
// exhausted walks 503, both carrying a synthesized Retry-After so
// clients back off on the capacity model's schedule rather than their
// own guess.
func (rt *Router) failErr(w http.ResponseWriter, counters []*serve.Counter, err error) {
	w.Header().Set("Retry-After", rt.synthRetryAfter())
	var be *BudgetError
	if errors.As(err, &be) {
		count(counters, http.StatusTooManyRequests)
		rt.jsonError(w, http.StatusTooManyRequests, err.Error())
		return
	}
	count(counters, http.StatusServiceUnavailable)
	rt.jsonError(w, http.StatusServiceUnavailable, err.Error())
}

// handleMap routes one map request: decode just enough to compute the
// canonical key (the same SHA-256 slrhd uses for its cache, exported
// as serve.CanonicalKey), then proxy the raw body to the key's home
// backend with failover. The body is forwarded verbatim — the backend
// is the single authority on validation and admission — so the
// response is byte-identical to asking that backend directly, and
// backend headers (Retry-After included) survive the failover path
// untouched.
func (rt *Router) handleMap(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		count(rt.mapRequests, http.StatusBadRequest)
		rt.jsonError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req serve.Request
	if err := dec.Decode(&req); err != nil {
		count(rt.mapRequests, http.StatusBadRequest)
		rt.jsonError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	res, err := rt.forward(r.Context(), "/v1/map", body, serve.CanonicalKey(req))
	if err != nil {
		rt.failErr(w, rt.mapRequests, err)
		return
	}
	count(rt.mapRequests, res.Status)
	for _, h := range forwardedHeaders {
		if v := res.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Backend", res.Backend)
	w.WriteHeader(res.Status)
	rt.write(w, res.Body)
}

// handleTrace looks a run id up across the fleet: run ids are
// per-backend, so the router asks each member in order and forwards
// the first hit.
func (rt *Router) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	for _, backend := range rt.currentView().members {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, backend+"/v1/runs/"+id+"/trace", nil)
		if err != nil {
			continue
		}
		resp, err := rt.cfg.Client.Do(req)
		if err != nil {
			continue
		}
		b, err := readBody(resp)
		if err != nil {
			continue
		}
		if resp.StatusCode == http.StatusOK {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("X-Backend", backend)
			rt.write(w, b)
			return
		}
	}
	rt.jsonError(w, http.StatusNotFound, "unknown run id on every backend")
}

// handleMetrics scrapes the router's own registry (backend metrics
// stay on the backends; scrape each instance directly).
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var buf bytes.Buffer
	if err := rt.reg.WriteText(&buf); err != nil {
		// bytes.Buffer writes cannot fail; guard kept for errdrop honesty.
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	rt.write(w, buf.Bytes())
}

// handleHealthz reports liveness: the router process is up.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rt.write(w, []byte("ok\n"))
}

// handleReadyz reports readiness: draining flips it off, and a router
// with zero ready backends cannot serve either.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if rt.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		rt.write(w, []byte("draining\n"))
		return
	}
	up := rt.health.UpCount()
	if up == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		rt.write(w, []byte("no backends ready\n"))
		return
	}
	rt.write(w, []byte(fmt.Sprintf("ready (%d/%d backends)\n", up, len(rt.currentView().members))))
}

// readBody drains and closes a backend response body.
func readBody(resp *http.Response) ([]byte, error) {
	b, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return b, err
}
