package serve

import (
	"net/http"
	"testing"
	"time"
)

// These are the regression tests behind the //lint:pairwise handoff
// annotations in handleMap: every admitting Decide hands its predicted
// cost to exactly one Complete — in runJob on the completion and
// dead-client paths, or inline on a queue refusal — so the backlog
// gauge always drains to zero at quiescence, and no flight outlives
// its waiters.

// drainBacklog waits for the admission backlog to hit zero; Complete
// runs before the response is written, so one poll normally suffices.
func drainBacklog(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.admission.Backlog() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("backlog stuck at %v, want 0", s.admission.Backlog())
		}
		time.Sleep(time.Millisecond)
	}
}

func flightCount(s *Server) int {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	return len(s.flights)
}

// TestHandoffBacklogDrainsOnCompletion: the normal path — Decide's
// admitted cost leaves via Complete in runJob once the run executes.
func TestHandoffBacklogDrainsOnCompletion(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := testRequest()
	req.Trace = false
	for i := 0; i < 3; i++ {
		req.Seed = uint64(900 + i) // distinct keys: each must reach admission
		resp := postMap(t, ts, mustMarshal(t, req))
		readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d = %d", i, resp.StatusCode)
		}
	}
	drainBacklog(t, s)
	if n := flightCount(s); n != 0 {
		t.Fatalf("%d flights outlived their requests", n)
	}
}

// TestHandoffBacklogDrainsOnCostShed: a cost-shed Decide never joins
// the backlog, so a 429 must leave the gauge exactly where it was.
func TestHandoffBacklogDrainsOnCostShed(t *testing.T) {
	classes := append(DefaultClasses(), Class{Name: "impossible", Priority: 0, TargetSeconds: 1e-9})
	s, ts := newTestServer(t, Config{Workers: 1, Classes: classes})

	warm := testRequest()
	warm.Trace = false
	resp := postMap(t, ts, mustMarshal(t, warm))
	readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up = %d", resp.StatusCode)
	}

	probe := warm
	probe.Seed++ // distinct key: must reach admission, not the cache
	probe.Class = "impossible"
	resp = postMap(t, ts, mustMarshal(t, probe))
	readBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("impossible class = %d, want 429", resp.StatusCode)
	}
	drainBacklog(t, s)
	if n := flightCount(s); n != 0 {
		t.Fatalf("%d flights outlived the shed", n)
	}
}

// TestHandoffBacklogDrainsOnQueueRefusal: when the pool refuses the
// job, the inline Complete (the "or below, on submit refusal" arm of
// the annotation) must retire the cost the Decide just admitted.
func TestHandoffBacklogDrainsOnQueueRefusal(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 1})

	// Warm the model so the probe's Decide admits a nonzero cost —
	// otherwise a leaked handoff would hide behind a zero prediction.
	warm := testRequest()
	warm.Trace = false
	resp := postMap(t, ts, mustMarshal(t, warm))
	readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up = %d", resp.StatusCode)
	}
	drainBacklog(t, s)

	// Pin the only worker, then fill the single queue slot.
	release := make(chan struct{})
	defer close(release)
	for !s.pool.TrySubmitPriority(func() { <-release }, 0) {
		time.Sleep(time.Millisecond)
	}
	for s.pool.Depth() > 0 { // worker has picked up the pin
		time.Sleep(time.Millisecond)
	}
	if !s.pool.TrySubmitPriority(func() {}, 0) {
		t.Fatal("could not occupy the queue slot")
	}

	probe := warm
	probe.Seed += 100
	resp = postMap(t, ts, mustMarshal(t, probe))
	readBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("queue shed missing Retry-After")
	}
	if got := s.shedTotal[shedQueue].Value(); got != 1 {
		t.Fatalf("shed_total{queue} = %d, want 1", got)
	}
	// The refused Decide's cost must be gone the moment the 429 lands.
	if got := s.admission.Backlog(); got != 0 {
		t.Fatalf("backlog after queue refusal = %v, want 0 (Decide leaked past the refusal)", got)
	}
	if n := flightCount(s); n != 0 {
		t.Fatalf("%d flights outlived the refusal", n)
	}
}
