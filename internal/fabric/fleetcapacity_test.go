package fabric

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"adhocgrid/internal/serve"
)

// stubBackend serves a canned capacity report (plus the readyz the
// health prober wants), so merge math can be pinned to exact numbers.
func stubBackend(t *testing.T, report string) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.WriteString(w, "ready\n"); err != nil {
			t.Errorf("stub readyz write: %v", err)
		}
	})
	mux.HandleFunc("GET /v1/capacity", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if _, err := io.WriteString(w, report); err != nil {
			t.Errorf("stub capacity write: %v", err)
		}
	})
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	return hs
}

// getFleetReport hits the router's GET /v1/capacity and decodes it.
func getFleetReport(t *testing.T, url, query string) (int, *FleetCapacityReport) {
	t.Helper()
	if query != "" {
		url += "?" + query
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	var rep FleetCapacityReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatalf("decode fleet report: %v", err)
	}
	return resp.StatusCode, &rep
}

// TestFleetCapacityMerge pins the aggregation math over stub backends:
// workers/queue/backlog sum, per-(heuristic, n) rates sum while the
// quoted cost is the worst across backends, and a dead backend appears
// in per_backend with its error but stays out of the totals.
func TestFleetCapacityMerge(t *testing.T) {
	b1 := stubBackend(t, `{
		"workers": 3, "queue_slots": 8, "backlog_seconds": 1.5,
		"classes": [],
		"models": [
			{"heuristic": "slrh1", "alpha_seconds": 0.01, "beta_seconds_per_task": 0.001,
			 "observations": 10,
			 "sustainable": [
				{"n": 64, "cost_seconds": 0.074, "req_per_sec": 40},
				{"n": 128, "cost_seconds": 0.138, "req_per_sec": 21}
			 ]}
		]
	}`)
	b2 := stubBackend(t, `{
		"workers": 5, "queue_slots": 16, "backlog_seconds": 0.5,
		"classes": [],
		"models": [
			{"heuristic": "slrh1", "alpha_seconds": 0.02, "beta_seconds_per_task": 0.002,
			 "observations": 6,
			 "sustainable": [
				{"n": 64, "cost_seconds": 0.148, "req_per_sec": 33}
			 ]},
			{"heuristic": "maxmax", "alpha_seconds": 0.005, "beta_seconds_per_task": 0.0005,
			 "observations": 2,
			 "sustainable": [
				{"n": 64, "cost_seconds": 0.037, "req_per_sec": 135}
			 ]}
		]
	}`)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // present in the fleet, unreachable on the wire

	rt, err := New(Config{Backends: []string{b1.URL, b2.URL, dead.URL}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	code, rep := getFleetReport(t, front.URL+"/v1/capacity", "")
	if code != http.StatusOK {
		t.Fatalf("fleet capacity: status %d", code)
	}
	if rep.Backends != 3 || rep.Healthy != 2 {
		t.Fatalf("backends=%d healthy=%d, want 3 and 2", rep.Backends, rep.Healthy)
	}
	if rep.Workers != 8 || rep.QueueSlots != 24 || rep.BacklogSeconds != 2.0 {
		t.Fatalf("workers=%d queue_slots=%d backlog=%.2f, want sums 8/24/2.0",
			rep.Workers, rep.QueueSlots, rep.BacklogSeconds)
	}
	if len(rep.PerBackend) != 3 {
		t.Fatalf("per_backend has %d entries, want every member", len(rep.PerBackend))
	}
	var deadEntry *BackendCapacity
	for i := range rep.PerBackend {
		if rep.PerBackend[i].Backend == dead.URL {
			deadEntry = &rep.PerBackend[i]
		}
	}
	if deadEntry == nil || deadEntry.Up || deadEntry.Error == "" || deadEntry.Report != nil {
		t.Fatalf("dead backend entry = %+v; want up=false with an error and no report", deadEntry)
	}

	var slrh1, maxmax *FleetModel
	for i := range rep.Models {
		switch rep.Models[i].Heuristic {
		case "slrh1":
			slrh1 = &rep.Models[i]
		case "maxmax":
			maxmax = &rep.Models[i]
		}
	}
	if slrh1 == nil || maxmax == nil {
		t.Fatalf("models %v missing a heuristic", rep.Models)
	}
	if slrh1.Observations != 16 {
		t.Fatalf("slrh1 observations = %.0f, want 10+6", slrh1.Observations)
	}
	var n64, n128 *FleetSustainRate
	for i := range slrh1.Sustainable {
		switch slrh1.Sustainable[i].N {
		case 64:
			n64 = &slrh1.Sustainable[i]
		case 128:
			n128 = &slrh1.Sustainable[i]
		}
	}
	if n64 == nil || n64.ReqPerSec != 73 || n64.WorstCostSeconds != 0.148 {
		t.Fatalf("slrh1 n=64 merged to %+v; want rate 40+33 and worst cost 0.148", n64)
	}
	if n128 == nil || n128.ReqPerSec != 21 || n128.WorstCostSeconds != 0.138 {
		t.Fatalf("slrh1 n=128 merged to %+v; want the single backend's numbers", n128)
	}
	if maxmax.Sustainable[0].ReqPerSec != 135 {
		t.Fatalf("maxmax rate = %.0f, want 135", maxmax.Sustainable[0].ReqPerSec)
	}
}

// TestFleetCapacityFocusedAnswer pins the focused-query merge: rates
// sum, meeting_backends counts backends that individually meet the
// class target, and the query string reaches every backend.
func TestFleetCapacityFocusedAnswer(t *testing.T) {
	var sawQuery atomic.Int32 // the router queries both backends concurrently
	answer := func(meets bool, rate float64) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Query().Get("heuristic") == "slrh1" {
				sawQuery.Add(1)
			}
			rep := serve.CapacityReport{
				Workers: 2,
				Answer: &serve.CapacityAnswer{
					Heuristic: "slrh1", N: 64, Class: "interactive",
					ReqPerSec: rate, MeetsTarget: meets,
				},
			}
			w.Header().Set("Content-Type", "application/json")
			if err := json.NewEncoder(w).Encode(rep); err != nil {
				t.Errorf("stub answer write: %v", err)
			}
		}
	}
	newStub := func(h http.HandlerFunc) *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {})
		mux.HandleFunc("GET /v1/capacity", h)
		hs := httptest.NewServer(mux)
		t.Cleanup(hs.Close)
		return hs
	}
	b1 := newStub(answer(true, 12))
	b2 := newStub(answer(false, 5))

	rt, err := New(Config{Backends: []string{b1.URL, b2.URL}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	code, rep := getFleetReport(t, front.URL+"/v1/capacity", "heuristic=slrh1&n=64&class=interactive")
	if code != http.StatusOK {
		t.Fatalf("focused fleet capacity: status %d", code)
	}
	if got := sawQuery.Load(); got != 2 {
		t.Fatalf("query string reached %d backends, want both", got)
	}
	a := rep.Answer
	if a == nil {
		t.Fatalf("fleet report has no focused answer")
	}
	if a.Heuristic != "slrh1" || a.N != 64 || a.Class != "interactive" {
		t.Fatalf("answer identity = %+v", a)
	}
	if a.ReqPerSec != 17 {
		t.Fatalf("fleet rate = %.0f, want 12+5", a.ReqPerSec)
	}
	if a.MeetingBackends != 1 || !a.MeetsTarget {
		t.Fatalf("meeting_backends=%d meets_target=%v, want 1/true (one capable backend suffices)",
			a.MeetingBackends, a.MeetsTarget)
	}
}

// TestFleetCapacityAllDown: a fleet where nobody answers is a 502, not
// an empty report.
func TestFleetCapacityAllDown(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	rt, err := New(Config{Backends: []string{dead.URL}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	code, _ := getFleetReport(t, front.URL+"/v1/capacity", "")
	if code != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", code)
	}
}

// TestFleetCapacityRealBackends exercises the same endpoint over real
// slrhd instances — the HTTP test the acceptance bar names.
func TestFleetCapacityRealBackends(t *testing.T) {
	f := newTestFleet(t, 2, nil)
	// Warm one model so the report carries observations.
	code, _, body := postJSON(t, f.client, f.front.URL+"/v1/map", testScenario)
	if code != http.StatusOK {
		t.Fatalf("warmup map: status %d: %s", code, body)
	}
	rcode, rep := getFleetReport(t, f.front.URL+"/v1/capacity", "")
	if rcode != http.StatusOK {
		t.Fatalf("fleet capacity: status %d", rcode)
	}
	if rep.Backends != 2 || rep.Healthy != 2 {
		t.Fatalf("backends=%d healthy=%d, want 2/2", rep.Backends, rep.Healthy)
	}
	if rep.Workers != 4 {
		t.Fatalf("fleet workers = %d, want 2 backends × 2 workers", rep.Workers)
	}
	found := false
	for _, m := range rep.Models {
		if m.Heuristic == "slrh1" && m.Observations > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("fleet models %+v lack the warmed slrh1 model", rep.Models)
	}
}
