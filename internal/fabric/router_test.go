package fabric

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"adhocgrid/internal/serve"
)

// testFleet is a set of in-process slrhd backends under one router,
// the whole fabric in one test process.
type testFleet struct {
	backends []*httptest.Server
	urls     []string
	router   *Router
	front    *httptest.Server
	client   *http.Client
}

// newTestFleet boots n real slrhd instances and a router over them.
// Everything is registered for cleanup in leakcheck-safe order.
func newTestFleet(t *testing.T, n int, mut func(*Config)) *testFleet {
	t.Helper()
	f := &testFleet{client: &http.Client{Timeout: 120 * time.Second}}
	for i := 0; i < n; i++ {
		s := serve.New(serve.Config{Workers: 2})
		hs := httptest.NewServer(s.Handler())
		t.Cleanup(s.Close)
		t.Cleanup(hs.Close)
		f.backends = append(f.backends, hs)
		f.urls = append(f.urls, hs.URL)
	}
	cfg := Config{
		Backends:      f.urls,
		ProbeInterval: 50 * time.Millisecond,
		BackoffBase:   time.Millisecond,
		Retries:       1,
	}
	if mut != nil {
		mut(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(rt.Close)
	f.router = rt
	f.front = httptest.NewServer(rt.Handler())
	t.Cleanup(f.front.Close)
	return f
}

// postJSON POSTs body and returns status, headers and body bytes.
func postJSON(t *testing.T, client *http.Client, url, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, resp.Header, b
}

// wantMetrics fetches the router's /metrics page and requires each of
// want on it as a whole line; it returns the page.
func wantMetrics(t *testing.T, f *testFleet, want ...string) string {
	t.Helper()
	body, code, _ := postStatus(t, f.client, http.MethodGet, f.front.URL+"/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	text := string(body)
	for _, w := range want {
		if !strings.Contains(text, "\n"+w+"\n") {
			t.Fatalf("/metrics missing %q:\n%s", w, text)
		}
	}
	return text
}

const testScenario = `{"n": 64, "case": "A", "heuristic": "slrh1", "seed": 7, "alpha": 0.5, "beta": 0.3}`

// TestRouterByteParityAndAffinity is the core fabric contract: the
// routed response is byte-identical to asking any backend directly,
// and the same scenario keeps landing on the same backend, whose cache
// answers the repeat.
func TestRouterByteParityAndAffinity(t *testing.T) {
	f := newTestFleet(t, 2, nil)

	code, hdr, routed := postJSON(t, f.client, f.front.URL+"/v1/map", testScenario)
	if code != http.StatusOK {
		t.Fatalf("routed map: status %d: %s", code, routed)
	}
	home := hdr.Get("X-Backend")
	if home == "" {
		t.Fatalf("routed response missing X-Backend")
	}
	for i, u := range f.urls {
		dcode, _, direct := postJSON(t, f.client, u+"/v1/map", testScenario)
		if dcode != http.StatusOK {
			t.Fatalf("direct map to backend %d: status %d", i, dcode)
		}
		if !bytes.Equal(routed, direct) {
			t.Fatalf("routed response differs from backend %d's direct answer (%d vs %d bytes)",
				i, len(routed), len(direct))
		}
	}

	code2, hdr2, again := postJSON(t, f.client, f.front.URL+"/v1/map", testScenario)
	if code2 != http.StatusOK {
		t.Fatalf("repeat map: status %d", code2)
	}
	if got := hdr2.Get("X-Backend"); got != home {
		t.Fatalf("affinity violated: first %s, repeat %s", home, got)
	}
	if hdr2.Get("X-Cache") != "hit" {
		t.Fatalf("repeat X-Cache = %q, want hit (home backend's cache must answer)", hdr2.Get("X-Cache"))
	}
	if !bytes.Equal(again, routed) {
		t.Fatalf("repeat not byte-identical")
	}
}

// TestRouterFailoverByteParity kills the home backend and asserts the
// ring successor answers with exactly the bytes the home would have
// produced — the re-route is invisible in the response.
func TestRouterFailoverByteParity(t *testing.T) {
	f := newTestFleet(t, 2, nil)

	code, hdr, first := postJSON(t, f.client, f.front.URL+"/v1/map", testScenario)
	if code != http.StatusOK {
		t.Fatalf("map: status %d", code)
	}
	home := hdr.Get("X-Backend")

	// Kill the home backend's listener (its serve.Server stays up so
	// cleanup stays orderly; the router only sees the dead socket).
	for i, u := range f.urls {
		if u == home {
			f.backends[i].Close()
		}
	}

	code2, hdr2, second := postJSON(t, f.client, f.front.URL+"/v1/map", testScenario)
	if code2 != http.StatusOK {
		t.Fatalf("failover map: status %d: %s", code2, second)
	}
	if got := hdr2.Get("X-Backend"); got == home || got == "" {
		t.Fatalf("failover X-Backend = %q, want a live successor (home was %s)", got, home)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("failover response not byte-identical (%d vs %d bytes)", len(first), len(second))
	}
	if f.router.Health().Up(home) {
		t.Fatalf("home backend still marked up after transport failure")
	}
	if got := f.router.failovers.Value(); got == 0 {
		t.Fatalf("failover counter still zero")
	}
	text := wantMetrics(t, f, `slrhrouter_map_requests_total{code="200"} 2`, "slrhrouter_backends 2")
	if !strings.Contains(text, "\nslrhrouter_failovers_total ") || strings.Contains(text, "\nslrhrouter_failovers_total 0\n") {
		t.Fatalf("/metrics does not show the failover:\n%s", text)
	}
}

// TestRouterAllBackendsDown pins the exhausted-walk path: a fleet with
// no reachable backend answers a well-formed 503 carrying the attempt
// detail and a Retry-After hint.
func TestRouterAllBackendsDown(t *testing.T) {
	f := newTestFleet(t, 2, nil)
	for _, hs := range f.backends {
		hs.Close()
	}
	code, hdr, body := postJSON(t, f.client, f.front.URL+"/v1/map", testScenario)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503", code, body)
	}
	if !strings.Contains(string(body), "fleet unavailable after") {
		t.Fatalf("503 body %q lacks the fleet-unavailable attempt detail", body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatalf("503 is missing its Retry-After hint")
	}
}

// TestRouterBadBody pins the router-side 400s: undecodable JSON and
// unknown fields never reach a backend.
func TestRouterBadBody(t *testing.T) {
	f := newTestFleet(t, 1, nil)
	for _, body := range []string{`{not json`, `{"n": 64, "bogus_field": 1}`} {
		code, _, b := postJSON(t, f.client, f.front.URL+"/v1/map", body)
		if code != http.StatusBadRequest {
			t.Fatalf("body %q: status %d (%s), want 400", body, code, b)
		}
	}
}

// TestRouterClassSharesRingSlot: requests differing only in service
// class share a canonical key, so they land on the same backend and
// the second one hits the first one's cache entry — admission metadata
// never fragments fleet cache affinity.
func TestRouterClassSharesRingSlot(t *testing.T) {
	f := newTestFleet(t, 3, nil)
	interactive := `{"n": 64, "case": "A", "heuristic": "slrh1", "seed": 7, "alpha": 0.5, "beta": 0.3, "class": "interactive"}`
	batch := `{"n": 64, "case": "A", "heuristic": "slrh1", "seed": 7, "alpha": 0.5, "beta": 0.3, "class": "batch"}`

	_, hdr1, body1 := postJSON(t, f.client, f.front.URL+"/v1/map", interactive)
	_, hdr2, body2 := postJSON(t, f.client, f.front.URL+"/v1/map", batch)
	if hdr1.Get("X-Backend") != hdr2.Get("X-Backend") {
		t.Fatalf("classes split the ring slot: %s vs %s", hdr1.Get("X-Backend"), hdr2.Get("X-Backend"))
	}
	if hdr2.Get("X-Cache") != "hit" {
		t.Fatalf("second class variant X-Cache = %q, want hit of the shared entry", hdr2.Get("X-Cache"))
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("class variants returned different bytes")
	}
}

// TestRouterTraceLookup: the router finds a run id across the fleet.
func TestRouterTraceLookup(t *testing.T) {
	f := newTestFleet(t, 2, nil)
	traced := `{"n": 64, "case": "A", "heuristic": "slrh1", "seed": 3, "alpha": 0.5, "beta": 0.3, "trace": true}`
	code, hdr, _ := postJSON(t, f.client, f.front.URL+"/v1/map", traced)
	if code != http.StatusOK {
		t.Fatalf("map: status %d", code)
	}
	runID := hdr.Get("X-Run-Id")
	if runID == "" {
		t.Fatalf("no X-Run-Id on traced run")
	}
	resp, err := f.client.Get(f.front.URL + "/v1/runs/" + runID + "/trace")
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace lookup: status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Backend") != hdr.Get("X-Backend") {
		t.Fatalf("trace served by %s, run executed on %s", resp.Header.Get("X-Backend"), hdr.Get("X-Backend"))
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil || len(b) == 0 {
		t.Fatalf("empty trace document (err %v)", err)
	}

	resp2, err := f.client.Get(f.front.URL + "/v1/runs/r99999999/trace")
	if err != nil {
		t.Fatalf("unknown trace: %v", err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown run id: status %d, want 404", resp2.StatusCode)
	}
}

// TestRouterReadyzDrain pins the readiness lifecycle: ready with a
// fleet, 503 once draining.
func TestRouterReadyzDrain(t *testing.T) {
	f := newTestFleet(t, 1, nil)
	resp, err := f.client.Get(f.front.URL + "/readyz")
	if err != nil {
		t.Fatalf("readyz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: status %d, want 200", resp.StatusCode)
	}
	f.router.BeginDrain()
	resp, err = f.client.Get(f.front.URL + "/readyz")
	if err != nil {
		t.Fatalf("readyz (draining): %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: status %d, want 503", resp.StatusCode)
	}
}

// TestRouterRejectsEmptyFleet pins the constructor contract.
func TestRouterRejectsEmptyFleet(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatalf("New with no backends should fail")
	}
	if _, err := New(Config{Backends: []string{"http://a", "http://a"}}); err == nil {
		t.Fatalf("New with duplicate backends should fail")
	}
}
