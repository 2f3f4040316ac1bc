package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"adhocgrid/internal/chaos"
	"adhocgrid/internal/serve"
)

// chaosFleet wires a chaos transport between the router and its
// backends: fault rules address the backends as b0, b1, ... in
// cfg.Backends (sorted URL) order.
func chaosFleet(t *testing.T, n int, dsl string, mut func(*Config)) (*testFleet, *chaos.Transport) {
	t.Helper()
	var tr *chaos.Transport
	f := newTestFleet(t, n, func(c *Config) {
		plan, err := chaos.ParsePlan(dsl)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", dsl, err)
		}
		tr = chaos.NewTransport(nil, plan, 7)
		for i, u := range c.Backends {
			tr.Register(fmt.Sprintf("b%d", i), u)
		}
		c.Client = &http.Client{Transport: tr}
		if mut != nil {
			mut(c)
		}
	})
	return f, tr
}

// TestBatchClientDisconnectReconciles is the disconnect-mid-batch
// regression: the client vanishes while items are in flight, and the
// handler must cancel the outstanding scatter RPCs, reap every item,
// and reconcile the metrics exactly — each of the N items booked in
// exactly one of ok/error/canceled, with the in-flight gauge back at
// zero and no orphaned goroutines (the package TestMain asserts that).
func TestBatchClientDisconnectReconciles(t *testing.T) {
	f, _ := chaosFleet(t, 1, "delay:b0*250ms@[0,1000]", func(c *Config) {
		c.Window = 1 // serialize items so the cancel lands mid-batch
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const sweep = `{"sweep": {"seeds": [1, 2, 3, 4, 5, 6], "ns": [16], "alpha": 0.5, "beta": 0.3}}`
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.front.URL+"/v1/map/batch", strings.NewReader(sweep))
	if err != nil {
		t.Fatalf("build batch request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := f.client.Do(req)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	time.Sleep(100 * time.Millisecond) // first item still inside its injected delay
	cancel()
	//lint:errdrop the disconnect makes the body read fail by design; the metrics below are the assertion
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		ok := f.router.batchItemsOK.Value()
		errs := f.router.batchItemsErr.Value()
		canc := f.router.batchItemsCanc.Value()
		inflight := f.router.batchInflight.Value()
		if ok+errs+canc == 6 && inflight == 0 {
			if canc == 0 {
				t.Fatalf("disconnect mid-batch booked zero canceled items (ok=%d err=%d)", ok, errs)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch never reconciled: ok=%d err=%d canceled=%d inflight=%d, want sum 6 and inflight 0",
				ok, errs, canc, inflight)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// faultStub serves scripted /v1/map and /v1/capacity answers with a
// live /readyz, standing in for an slrhd instance.
func faultStub(t *testing.T, mapFn http.HandlerFunc, capacity string) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	if mapFn != nil {
		mux.HandleFunc("/v1/map", mapFn)
	}
	if capacity != "" {
		mux.HandleFunc("/v1/capacity", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if _, err := io.WriteString(w, capacity); err != nil {
				t.Errorf("capacity write: %v", err)
			}
		})
	}
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {})
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	return hs
}

// newStubRouter boots a router directly over stub backends.
func newStubRouter(t *testing.T, mut func(*Config), urls ...string) (*Router, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Backends:      urls,
		ProbeInterval: 50 * time.Millisecond,
		BackoffBase:   time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	return rt, front
}

// scenarioForHome finds a scenario whose canonical key homes on the
// wanted backend, so failover tests are deterministic instead of
// hoping the hash lands right.
func scenarioForHome(t *testing.T, rt *Router, home string) string {
	t.Helper()
	for seed := uint64(1); seed < 200; seed++ {
		req := serve.Request{N: 16, Case: "A", Heuristic: "slrh1", Seed: seed, Alpha: 0.5, Beta: 0.3}
		if rt.Ring().Home(serve.CanonicalKey(req)) == home {
			return fmt.Sprintf(`{"n": 16, "case": "A", "heuristic": "slrh1", "seed": %d, "alpha": 0.5, "beta": 0.3}`, seed)
		}
	}
	t.Fatalf("no scenario homes on %s within 200 seeds", home)
	return ""
}

// TestRetryAfterPreservedAcrossFailover pins satellite contract: a
// backend's Retry-After survives the failover path verbatim, on both
// the single-request and the batch surface.
func TestRetryAfterPreservedAcrossFailover(t *testing.T) {
	busyBody := `{"error":"busy"}` + "\n"
	busy := faultStub(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		if _, err := io.WriteString(w, busyBody); err != nil {
			t.Errorf("map write: %v", err)
		}
	}, "")
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close()

	rt, front := newStubRouter(t, nil, busy.URL, deadURL)
	client := &http.Client{Timeout: 30 * time.Second}

	// Route a scenario whose home is the dead backend: the walk must
	// fail over to the busy one and pass its 429 + Retry-After through
	// untouched.
	scenario := scenarioForHome(t, rt, deadURL)
	code, hdr, body := postJSON(t, client, front.URL+"/v1/map", scenario)
	if code != http.StatusTooManyRequests || string(body) != busyBody {
		t.Fatalf("failover 429: code %d body %q", code, body)
	}
	if got := hdr.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q after failover, want the backend's verbatim 7", got)
	}
	if rt.failovers.Value() == 0 {
		t.Fatalf("failover counter zero — the test routed without failing over")
	}

	// The batch surface carries the same header into its result line.
	var req serve.Request
	if err := json.Unmarshal([]byte(scenario), &req); err != nil {
		t.Fatalf("scenario: %v", err)
	}
	items, _ := json.Marshal(BatchRequest{Items: []serve.Request{req}})
	code, _, bbody := postJSON(t, client, front.URL+"/v1/map/batch", string(items))
	if code != http.StatusOK {
		t.Fatalf("batch: status %d", code)
	}
	lines, summary := parseBatch(t, bbody)
	if len(lines) != 1 || summary.Failed != 1 {
		t.Fatalf("batch shape: %d lines, summary %+v", len(lines), summary)
	}
	if lines[0].Status != http.StatusTooManyRequests || lines[0].RetryAfter != "7" {
		t.Fatalf("batch line lost the verbatim Retry-After: %+v", lines[0])
	}
}

// TestRetryAfterSynthesizedFromCapacity: when the retry budget refuses
// a walk, the 429's Retry-After comes from the fleet capacity model —
// ceil(backlog / workers), exactly the per-instance admission math. A
// blackholed fleet gets the same fast 429 once its free attempt times
// out, instead of hanging for the client's whole deadline.
func TestRetryAfterSynthesizedFromCapacity(t *testing.T) {
	for _, dsl := range []string{"drop:b0@[0,1000]", "blackhole:b0@[0,1000]"} {
		t.Run(strings.Split(dsl, ":")[0], func(t *testing.T) {
			stub := faultStub(t, nil, `{"workers": 2, "queue_slots": 8, "backlog_seconds": 10}`)

			plan, err := chaos.ParsePlan(dsl)
			if err != nil {
				t.Fatalf("ParsePlan: %v", err)
			}
			tr := chaos.NewTransport(nil, plan, 7)
			tr.Register("b0", stub.URL)
			rt, front := newStubRouter(t, func(c *Config) {
				c.Client = &http.Client{Transport: tr}
				c.AttemptTimeout = 150 * time.Millisecond
				c.Retries = -1          // no same-backend retries
				c.RetryBudgetRatio = -1 // empty bucket:
				c.RetryBudgetBurst = -1 // every extra attempt is refused
			}, stub.URL)
			client := &http.Client{Timeout: 30 * time.Second}

			// Warm the capacity cache through the router (the chaos plan
			// only intercepts /v1/map, so the aggregation flows).
			capBody, _, _ := postStatus(t, client, http.MethodGet, front.URL+"/v1/capacity", "")
			var rep FleetCapacityReport
			if err := json.Unmarshal(capBody, &rep); err != nil || rep.Workers != 2 {
				t.Fatalf("capacity warmup: %v (%s)", err, capBody)
			}

			code, hdr, body := postJSON(t, client, front.URL+"/v1/map", testScenario)
			if code != http.StatusTooManyRequests {
				t.Fatalf("budget-refused walk: status %d (%s), want 429", code, body)
			}
			if !strings.Contains(string(body), "retry budget exhausted") {
				t.Fatalf("429 body %q lacks the budget detail", body)
			}
			if got := hdr.Get("Retry-After"); got != "5" {
				t.Fatalf("Retry-After = %q, want 5 (ceil(10s backlog / 2 workers))", got)
			}
			if rt.budgetRejects.Value() == 0 {
				t.Fatalf("budget reject counter still zero")
			}
		})
	}
}

// TestForward5xxFailsOverThenReturnsVerbatim: an injected 5xx burst on
// the home backend is retried on the successor (byte-identical answer);
// a fleet-wide burst exhausts the walk and returns the last 5xx bytes
// verbatim instead of hiding them behind a router error.
func TestForward5xxFailsOverThenReturnsVerbatim(t *testing.T) {
	f, _ := chaosFleet(t, 2, "5xx:b0@[0,1000]", nil)
	want := postDirect(t, f)

	// Find which logical name the chaos rules hit: b0 is the first
	// sorted URL. Route a scenario homed there so the burst is on the
	// home path.
	scenario := scenarioForHome(t, f.router, f.urls[0])
	code, hdr, got := postJSON(t, f.client, f.front.URL+"/v1/map", scenario)
	if code != http.StatusOK || !bytes.Equal(got, want[scenario]) {
		t.Fatalf("5xx burst not healed by failover: code %d", code)
	}
	if hdr.Get("X-Backend") == f.urls[0] {
		t.Fatalf("answer credited to the bursting backend")
	}

	// Fleet-wide burst: the walk exhausts and the injected 503 comes
	// back verbatim.
	f2, _ := chaosFleet(t, 2, "5xx:b0@[0,1000],5xx:b1@[0,1000]", nil)
	code, _, body := postJSON(t, f2.client, f2.front.URL+"/v1/map", testScenario)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("fleet-wide 5xx: status %d (%s), want the verbatim 503", code, body)
	}
	if !strings.Contains(string(body), "chaos: injected 503 burst") {
		t.Fatalf("503 body %q is not the backend's verbatim answer", body)
	}
}

// TestRouterSurvivesEachFaultClass injects each fault class at the
// home backend of a live two-backend fleet (5xx has its own test
// above). A fault that fails the attempt (drop, reset, blackhole) is
// healed by failing over; one that only slows it (delay, slowbody) is
// served in place within the attempt timeout. Either way the client
// gets the home backend's exact bytes.
func TestRouterSurvivesEachFaultClass(t *testing.T) {
	for _, tc := range []struct {
		name, dsl string
		failover  bool
	}{
		{"drop", "drop:b0@[0,1000]", true},
		{"reset", "reset:b0@[0,1000]", true},
		{"blackhole", "blackhole:b0@[0,1000]", true},
		{"delay", "delay:b0*40ms@[0,1000]", false},
		{"slowbody", "slowbody:b0*1ms@[0,1000]", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, tr := chaosFleet(t, 2, tc.dsl, func(c *Config) { c.AttemptTimeout = 200 * time.Millisecond })
			want := postDirect(t, f)
			scenario := scenarioForHome(t, f.router, f.urls[0])
			code, hdr, got := postJSON(t, f.client, f.front.URL+"/v1/map", scenario)
			if code != http.StatusOK || !bytes.Equal(got, want[scenario]) {
				t.Fatalf("status %d with %d bytes (%s); want the home backend's %d bytes",
					code, len(got), got, len(want[scenario]))
			}
			if tr.Count("b0") == 0 {
				t.Fatalf("the fault never saw the request")
			}
			if served := hdr.Get("X-Backend"); (served != f.urls[0]) != tc.failover {
				t.Fatalf("answered by %s (home %s); failover %v wanted", served, f.urls[0], tc.failover)
			}
		})
	}
}

// TestBatchDegradesPerItem blackholes one backend under a batch with
// the retry budget off and the breaker held shut, so each item's
// outcome follows from ring placement alone: every item homed on the
// faulted backend degrades to its own 429 line with a Retry-After and
// an error, every other item answers 200 with its body, and the
// summary reconciles.
func TestBatchDegradesPerItem(t *testing.T) {
	f, _ := chaosFleet(t, 2, "blackhole:b0@[0,1000]", func(c *Config) {
		c.AttemptTimeout = 150 * time.Millisecond
		c.Retries = -1
		c.RetryBudgetRatio = -1
		c.RetryBudgetBurst = -1
		c.BreakerThreshold = 100 // never trips: each faulted item fails on its own
	})
	// Six |T|=16 seeds, the first three homed on the faulted backend and
	// the first three homed elsewhere (placement follows the fleet's
	// ports, so the seeds are picked from the ring).
	var seeds []uint64
	var faulted []bool
	picked := map[bool]int{}
	for seed := uint64(1); seed < 200 && len(seeds) < 6; seed++ {
		req := serve.Request{N: 16, Case: "A", Heuristic: "slrh1", Seed: seed, Alpha: 0.5, Beta: 0.3}
		home := f.router.Ring().Home(serve.CanonicalKey(req))
		onB0 := home == f.urls[0]
		if picked[onB0] == 3 {
			continue
		}
		picked[onB0]++
		seeds, faulted = append(seeds, seed), append(faulted, onB0)
		if onB0 {
			continue
		}
		// Warm the healthy home, so the item's single attempt is a cache
		// hit well inside the attempt timeout even on a loaded host.
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if code, _, b := postJSON(t, f.client, home+"/v1/map", string(body)); code != http.StatusOK {
			t.Fatalf("warming seed %d: status %d (%s)", seed, code, b)
		}
	}
	if len(seeds) != 6 {
		t.Fatalf("found %d of 6 seeds within 200", len(seeds))
	}

	sweep, err := json.Marshal(BatchRequest{Sweep: &SweepSpec{Ns: []int{16}, Seeds: seeds, Alpha: 0.5, Beta: 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	code, _, body := postJSON(t, f.client, f.front.URL+"/v1/map/batch", string(sweep))
	if code != http.StatusOK {
		t.Fatalf("batch: status %d (%s)", code, body)
	}
	lines, summary := parseBatch(t, body)
	if len(lines) != len(seeds) {
		t.Fatalf("batch emitted %d item lines, want %d", len(lines), len(seeds))
	}
	for i, l := range lines {
		switch {
		case l.Index != i:
			t.Fatalf("line %d carries index %d", i, l.Index)
		case faulted[i] && (l.Status != http.StatusTooManyRequests || l.RetryAfter == "" || l.Error == ""):
			t.Fatalf("item %d homed on the blackholed backend: %+v; want a 429 with retry_after and error", i, l)
		case !faulted[i] && (l.Status != http.StatusOK || len(l.Body) == 0):
			t.Fatalf("healthy item %d: %+v; want a 200 with a body", i, l)
		}
	}
	if summary.Items != 6 || summary.OK != 3 || summary.Failed != 3 {
		t.Fatalf("summary %+v; want 6 items, 3 ok, 3 failed", summary)
	}
}

// postDirect asks each backend directly for every seed the tests use,
// returning scenario → bytes (all backends agree byte-for-byte).
func postDirect(t *testing.T, f *testFleet) map[string][]byte {
	t.Helper()
	want := make(map[string][]byte)
	for seed := uint64(1); seed < 200; seed++ {
		scenario := fmt.Sprintf(`{"n": 16, "case": "A", "heuristic": "slrh1", "seed": %d, "alpha": 0.5, "beta": 0.3}`, seed)
		req := serve.Request{N: 16, Case: "A", Heuristic: "slrh1", Seed: seed, Alpha: 0.5, Beta: 0.3}
		if f.router.Ring().Home(serve.CanonicalKey(req)) == f.urls[0] {
			_, _, b := postJSON(t, f.client, f.urls[0]+"/v1/map", scenario)
			want[scenario] = b
			return want
		}
	}
	t.Fatalf("no scenario homes on the first backend")
	return nil
}

// postStatus issues a request and returns body, status and headers
// without judging the status.
func postStatus(t *testing.T, client *http.Client, method, url, body string) ([]byte, int, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("build %s %s: %v", method, url, err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s %s: %v", method, url, err)
	}
	return b, resp.StatusCode, resp.Header
}
