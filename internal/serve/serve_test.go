package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"adhocgrid/internal/core"
	"adhocgrid/internal/trace"
)

// testRequest is a small, fast scenario (|T|=48) exercising an SLRH
// variant with trace capture.
func testRequest() Request {
	return Request{N: 48, Case: "A", Heuristic: "slrh1", Seed: 7, Alpha: 0.5, Beta: 0.3, Trace: true}
}

// newTestServer returns a started service plus its HTTP front end;
// both are torn down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// postMap POSTs a request body to /v1/map and returns the response.
func postMap(t *testing.T, ts *httptest.Server, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/map", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/map: %v", err)
	}
	return resp
}

// readBody drains and closes a response body.
func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer func() {
		if err := resp.Body.Close(); err != nil {
			t.Fatalf("close body: %v", err)
		}
	}()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return b
}

func mustMarshal(t *testing.T, v interface{}) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMapMissThenHitByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := mustMarshal(t, testRequest())

	miss := postMap(t, ts, body)
	if miss.StatusCode != http.StatusOK {
		t.Fatalf("miss status = %d, body %s", miss.StatusCode, readBody(t, miss))
	}
	if got := miss.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first response X-Cache = %q, want miss", got)
	}
	missRun := miss.Header.Get("X-Run-Id")
	missBody := readBody(t, miss)

	hit := postMap(t, ts, body)
	if hit.StatusCode != http.StatusOK {
		t.Fatalf("hit status = %d", hit.StatusCode)
	}
	if got := hit.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second response X-Cache = %q, want hit", got)
	}
	if got := hit.Header.Get("X-Run-Id"); got != missRun {
		t.Fatalf("cache hit changed run id: %q vs %q", got, missRun)
	}
	hitBody := readBody(t, hit)
	if !bytes.Equal(missBody, hitBody) {
		t.Fatalf("cache hit not byte-identical to miss:\nmiss: %s\nhit:  %s", missBody, hitBody)
	}

	// A cached response must also be byte-identical to recomputation
	// from scratch — the determinism guarantee the cache relies on.
	out, err := Execute(testRequest(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeResult(&buf, out.Result); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), missBody) {
		t.Fatalf("served bytes differ from direct recomputation:\nserved: %s\ndirect: %s", missBody, buf.Bytes())
	}

	var res Result
	if err := json.Unmarshal(missBody, &res); err != nil {
		t.Fatal(err)
	}
	if !res.VerifyOK || res.Metrics.Mapped != 48 || !res.Metrics.Complete {
		t.Fatalf("unexpected result: %+v", res.Metrics)
	}
}

func TestTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postMap(t, ts, mustMarshal(t, testRequest()))
	runID := resp.Header.Get("X-Run-Id")
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK || runID == "" {
		t.Fatalf("map failed: %d %s", resp.StatusCode, body)
	}
	var res Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}

	tr, err := http.Get(ts.URL + "/v1/runs/" + runID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d", tr.StatusCode)
	}
	var doc trace.Document
	if err := json.Unmarshal(readBody(t, tr), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Snapshots) != res.Steps {
		t.Fatalf("trace has %d snapshots, run took %d timesteps", len(doc.Snapshots), res.Steps)
	}
	if len(doc.Assignments) != res.Metrics.Mapped {
		t.Fatalf("trace has %d assignments, %d mapped", len(doc.Assignments), res.Metrics.Mapped)
	}

	missing, err := http.Get(ts.URL + "/v1/runs/r99999999/trace")
	if err != nil {
		t.Fatal(err)
	}
	if missing.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown run id status = %d, want 404", missing.StatusCode)
	}
	readBody(t, missing)
}

func TestNoTraceRequestedMeansNoTraceStored(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := testRequest()
	req.Trace = false
	resp := postMap(t, ts, mustMarshal(t, req))
	runID := resp.Header.Get("X-Run-Id")
	readBody(t, resp)
	tr, err := http.Get(ts.URL + "/v1/runs/" + runID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, tr)
	if tr.StatusCode != http.StatusNotFound {
		t.Fatalf("trace of an untraced run: status %d, want 404", tr.StatusCode)
	}
}

func TestMapValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxN: 128})
	cases := []struct {
		name string
		body string
	}{
		{"malformed json", `{`},
		{"unknown field", `{"n": 48, "heurstic": "slrh1"}`},
		{"bad case", `{"n": 48, "case": "D", "heuristic": "slrh1", "alpha": 0.5, "beta": 0.3}`},
		{"bad heuristic", `{"n": 48, "case": "A", "heuristic": "slrh9", "alpha": 0.5, "beta": 0.3}`},
		{"bad weights", `{"n": 48, "case": "A", "heuristic": "slrh1", "alpha": 0.9, "beta": 0.9}`},
		{"negative n", `{"n": -1, "case": "A", "heuristic": "slrh1", "alpha": 0.5, "beta": 0.3}`},
		{"n over cap", `{"n": 4096, "case": "A", "heuristic": "slrh1", "alpha": 0.5, "beta": 0.3}`},
		{"loss on maxmax", `{"n": 48, "case": "A", "heuristic": "maxmax", "alpha": 0.5, "beta": 0.3, "lose": [{"machine":1,"at":100}]}`},
		{"negative deltat", `{"n": 48, "case": "A", "heuristic": "slrh1", "alpha": 0.5, "beta": 0.3, "deltat": -5}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postMap(t, ts, []byte(tc.body))
			body := readBody(t, resp)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %s)", resp.StatusCode, body)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Fatalf("error body not JSON with error field: %s", body)
			}
		})
	}
}

func TestCanonicalKey(t *testing.T) {
	base := testRequest()
	sloppy := base
	sloppy.Case, sloppy.Heuristic = " a ", "SLRH1"
	sloppy.DeltaT, sloppy.Horizon = 0, 0 // defaults
	canon := base.Canonical()
	if canon.DeltaT == 0 || canon.Horizon == 0 {
		t.Fatal("canonical form must resolve clock defaults")
	}
	if base.Key() != sloppy.Key() {
		t.Fatal("equivalent requests must share a cache key")
	}
	other := base
	other.Seed++
	if base.Key() == other.Key() {
		t.Fatal("distinct seeds must not share a cache key")
	}
	mm := base
	mm.Heuristic, mm.Lose, mm.Trace = "maxmax", nil, false
	mm2 := mm
	mm2.DeltaT, mm2.Horizon = 999, 999 // meaningless for maxmax
	if mm.Key() != mm2.Key() {
		t.Fatal("maxmax requests must ignore clock parameters in the key")
	}
}

func TestMaxmaxRequestServed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postMap(t, ts, []byte(`{"n": 48, "case": "B", "heuristic": "maxmax", "alpha": 0.5, "beta": 0.3, "trace": true}`))
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var res Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Request.DeltaT != 0 || res.Request.Horizon != 0 {
		t.Fatalf("maxmax canonical request should zero clock params: %+v", res.Request)
	}
	// Static mapper traces have assignments but no per-timestep snapshots.
	tr, err := http.Get(ts.URL + "/v1/runs/" + resp.Header.Get("X-Run-Id") + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var doc trace.Document
	if err := json.Unmarshal(readBody(t, tr), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Snapshots) != 0 || len(doc.Assignments) == 0 {
		t.Fatalf("maxmax trace: %d snapshots, %d assignments", len(doc.Snapshots), len(doc.Assignments))
	}
}

func TestHealthReadyAndDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d, want 200", path, resp.StatusCode)
		}
	}
	s.BeginDrain()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatal("liveness must hold during drain")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := mustMarshal(t, testRequest())
	readBody(t, postMap(t, ts, body)) // miss
	readBody(t, postMap(t, ts, body)) // hit

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text := string(readBody(t, resp))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	for _, want := range []string{
		`# TYPE slrhd_map_requests_total counter`,
		`slrhd_map_requests_total{code="200"} 2`,
		`slrhd_cache_hits_total 1`,
		`slrhd_cache_misses_total 1`,
		`slrhd_cache_entries 1`,
		`slrhd_runs_total{heuristic="slrh1"} 1`,
		`# TYPE slrhd_run_seconds histogram`,
		`slrhd_run_seconds_count{heuristic="slrh1"} 1`,
		`slrhd_heuristic_seconds_count{heuristic="slrh1"} 1`,
		`slrhd_inflight_runs 0`,
		`slrhd_queue_depth 0`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
	// Histogram buckets must be cumulative and end at +Inf.
	if !strings.Contains(text, `slrhd_run_seconds_bucket{heuristic="slrh1",le="+Inf"} 1`) {
		t.Fatalf("missing +Inf bucket:\n%s", text)
	}
}

func TestMapMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/map")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/map = %d, want 405", resp.StatusCode)
	}
}

func TestExecuteRejectsBeforeComputing(t *testing.T) {
	req := testRequest()
	req.Case = "Z"
	if _, err := Execute(req, 0); err == nil {
		t.Fatal("Execute must validate the request")
	} else {
		var reqErr *RequestError
		if !errors.As(err, &reqErr) {
			t.Fatalf("validation failure should be a RequestError, got %T", err)
		}
	}
}

// TestExecuteArenaByteIdentical: borrowing a pooled arena must not
// change a single response byte, including when the arena is reused
// across different workloads. Requests alternate A, B, A so the third
// run reuses the arena the first one grew — any state residue would
// change the bytes. The maxmax request never borrows an arena.
func TestExecuteArenaByteIdentical(t *testing.T) {
	reqs := []Request{
		{N: 48, Case: "A", Heuristic: "slrh1", Seed: 11, Alpha: 0.5, Beta: 0.3},
		{N: 96, Case: "B", Heuristic: "slrh3", Seed: 12, Alpha: 0.5, Beta: 0.3},
		{N: 48, Case: "A", Heuristic: "slrh1", Seed: 11, Alpha: 0.5, Beta: 0.3},
		{N: 48, Case: "A", Heuristic: "slrh2", Seed: 11, Alpha: 0.5, Beta: 0.3, Faults: "lose:1@400,rejoin:1@900"},
		{N: 48, Case: "B", Heuristic: "maxmax", Seed: 11, Alpha: 0.5, Beta: 0.3},
	}
	ap := core.NewArenaPool()
	for k, req := range reqs {
		plain, err := Execute(req, 0)
		if err != nil {
			t.Fatalf("req %d plain: %v", k, err)
		}
		var want bytes.Buffer
		if err := EncodeResult(&want, plain.Result); err != nil {
			t.Fatal(err)
		}
		out, err := ExecuteArena(req, 0, 0, ap)
		if err != nil {
			t.Fatalf("req %d arena: %v", k, err)
		}
		var got bytes.Buffer
		if err := EncodeResult(&got, out.Result); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("req %d (%s n=%d): arena-backed response differs from plain", k, req.Heuristic, req.N)
		}
	}
}

// TestExecuteWorkersByteIdentical: ExecuteArena's deprecated
// scoreWorkers argument is ignored — any value, with or without an
// arena pool, yields the bytes of the plain serial response.
func TestExecuteWorkersByteIdentical(t *testing.T) {
	reqs := []Request{
		{N: 48, Case: "A", Heuristic: "slrh1", Seed: 11, Alpha: 0.5, Beta: 0.3},
		{N: 96, Case: "B", Heuristic: "slrh3", Seed: 12, Alpha: 0.5, Beta: 0.3},
		{N: 48, Case: "A", Heuristic: "slrh2", Seed: 11, Alpha: 0.5, Beta: 0.3, Faults: "lose:1@400,rejoin:1@900"},
		{N: 48, Case: "B", Heuristic: "maxmax", Seed: 11, Alpha: 0.5, Beta: 0.3},
	}
	ap := core.NewArenaPool()
	for k, req := range reqs {
		plain, err := Execute(req, 0)
		if err != nil {
			t.Fatalf("req %d plain: %v", k, err)
		}
		var want bytes.Buffer
		if err := EncodeResult(&want, plain.Result); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{-1, 2, 4} {
			for _, pool := range []*core.ArenaPool{nil, ap} {
				out, err := ExecuteArena(req, 0, workers, pool)
				if err != nil {
					t.Fatalf("req %d workers=%d: %v", k, workers, err)
				}
				var got bytes.Buffer
				if err := EncodeResult(&got, out.Result); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Errorf("req %d (%s) workers=%d pooled=%v: response differs from plain",
						k, req.Heuristic, workers, pool != nil)
				}
			}
		}
	}
}
