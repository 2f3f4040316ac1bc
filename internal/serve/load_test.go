package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"
)

// loadBody builds a distinct small request per index so the load tests
// never collapse onto one cache entry.
func loadBody(t *testing.T, k int) []byte {
	t.Helper()
	return mustMarshal(t, Request{
		N: 32, Case: "A", Heuristic: "slrh1", Seed: uint64(1000 + k), Alpha: 0.5, Beta: 0.3,
	})
}

// TestLoadAdmissionControl fires 100 concurrent requests at a service
// with 2 workers and a 2-slot queue while both workers are pinned on a
// long job: every request must terminate with 200 or 429, every 429
// must carry Retry-After, and the metrics counters must reconcile
// exactly with the observed responses. Pinning the workers makes the
// overflow deterministic — without it, bench-scale runs complete
// faster than clients arrive and nothing is shed.
func TestLoadAdmissionControl(t *testing.T) {
	const clients = 100
	s, ts := newTestServer(t, Config{Workers: 2, QueueSize: 2})

	release := make(chan struct{})
	for i := 0; i < 2; i++ {
		if !s.pool.TrySubmitPriority(func() { <-release }, 0) {
			t.Fatal("could not pin worker")
		}
	}
	for s.pool.Depth() > 0 { // wait for both pins to reach a worker
		time.Sleep(time.Millisecond)
	}

	statuses := make([]int, clients)
	retryAfter := make([]string, clients)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/map", "application/json", bytes.NewReader(loadBody(t, k)))
			if err != nil {
				statuses[k] = -1
				return
			}
			statuses[k] = resp.StatusCode
			retryAfter[k] = resp.Header.Get("Retry-After")
			readBody(t, resp)
		}(k)
	}
	time.Sleep(50 * time.Millisecond) // let the fleet arrive and overflow the queue
	close(release)
	wg.Wait()

	var ok200, shed429 uint64
	for k, code := range statuses {
		switch code {
		case http.StatusOK:
			ok200++
		case http.StatusTooManyRequests:
			shed429++
			if retryAfter[k] == "" {
				t.Fatalf("429 response %d missing Retry-After", k)
			}
		default:
			t.Fatalf("request %d got status %d, want 200 or 429", k, code)
		}
	}
	if ok200+shed429 != clients {
		t.Fatalf("responses lost: %d + %d != %d", ok200, shed429, clients)
	}
	if ok200 == 0 {
		t.Fatal("admission control shed every request; expected some to execute")
	}
	if shed429 == 0 {
		t.Fatal("a 2-worker/2-slot queue under 100 clients must shed load")
	}

	// Reconcile /metrics with what the clients observed.
	if got := s.mapRequests[statusIndex(t, http.StatusOK)].Value(); got != ok200 {
		t.Fatalf("requests_total{200} = %d, observed %d", got, ok200)
	}
	if got := s.mapRequests[statusIndex(t, http.StatusTooManyRequests)].Value(); got != shed429 {
		t.Fatalf("requests_total{429} = %d, observed %d", got, shed429)
	}
	// Every key is distinct here, so coalesced stays 0, but the full
	// disposition invariant is hits + misses + coalesced == 200s.
	hits, misses, coalesced := s.cacheHits.Value(), s.cacheMisses.Value(), s.coalesced.Value()
	if hits+misses+coalesced != ok200 {
		t.Fatalf("hits %d + misses %d + coalesced %d != 200-responses %d", hits, misses, coalesced, ok200)
	}
	var runs uint64
	for _, c := range s.runsTotal {
		runs += c.Value()
	}
	if runs != s.cacheMisses.Value() {
		t.Fatalf("runs_total %d != cache misses %d", runs, s.cacheMisses.Value())
	}
	if d := s.pool.Depth(); d != 0 {
		t.Fatalf("queue depth %d after quiescence", d)
	}
	if v := s.inflight.Value(); v != 0 {
		t.Fatalf("inflight %d after quiescence", v)
	}
}

// TestGracefulDrainDropsNoAcceptedJob closes the service while requests
// are in flight: every accepted job must still complete (200), late
// arrivals are shed (429), and nothing hangs or is dropped.
func TestGracefulDrainDropsNoAcceptedJob(t *testing.T) {
	const clients = 30
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: clients})

	results := make(chan int, clients)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/map", "application/json", bytes.NewReader(loadBody(t, k)))
			if err != nil {
				results <- -1
				return
			}
			body := readBody(t, resp)
			if resp.StatusCode == http.StatusOK {
				var res Result
				if err := json.Unmarshal(body, &res); err != nil || !res.VerifyOK {
					results <- -2
					return
				}
			}
			results <- resp.StatusCode
		}(k)
	}
	time.Sleep(5 * time.Millisecond) // let a prefix of the fleet be admitted
	s.BeginDrain()
	s.Close() // drains: every accepted job runs before Close returns
	wg.Wait()
	close(results)

	counts := map[int]int{}
	for code := range results {
		counts[code]++
	}
	if counts[-1] != 0 || counts[-2] != 0 {
		t.Fatalf("transport or verification failures during drain: %v", counts)
	}
	if counts[http.StatusOK]+counts[http.StatusTooManyRequests] != clients {
		t.Fatalf("dropped requests during drain: %v", counts)
	}
	// Every job the pool accepted produced a 200: accepted = executed.
	var runs uint64
	for _, c := range s.runsTotal {
		runs += c.Value()
	}
	if runs != uint64(counts[http.StatusOK]) {
		t.Fatalf("executed %d runs but served %d successes", runs, counts[http.StatusOK])
	}
}

// statusIndex locates a status code's counter slot.
func statusIndex(t *testing.T, code int) int {
	t.Helper()
	for i, c := range mapStatusCodes {
		if c == code {
			return i
		}
	}
	t.Fatalf("status %d not tracked", code)
	return -1
}

// TestConcurrentIdenticalRequests races many clients onto one cache
// key: all must succeed with byte-identical bodies regardless of
// hit/miss interleaving.
func TestConcurrentIdenticalRequests(t *testing.T) {
	const clients = 24
	_, ts := newTestServer(t, Config{Workers: 4, QueueSize: clients})
	body := mustMarshal(t, testRequest())
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/map", "application/json", bytes.NewReader(body))
			if err != nil {
				return
			}
			if resp.StatusCode == http.StatusOK {
				bodies[k] = readBody(t, resp)
			} else {
				readBody(t, resp)
			}
		}(k)
	}
	wg.Wait()
	var ref []byte
	for k := range bodies {
		if bodies[k] == nil {
			continue
		}
		if ref == nil {
			ref = bodies[k]
			continue
		}
		if !bytes.Equal(ref, bodies[k]) {
			t.Fatalf("client %d saw different bytes for the same request", k)
		}
	}
	if ref == nil {
		t.Fatal("no client succeeded")
	}
}

// TestCacheEvictionFIFO fills a 2-entry cache with three keys and
// checks the oldest is recomputed on return.
func TestCacheEvictionFIFO(t *testing.T) {
	c := NewCache(2)
	for k := 0; k < 3; k++ {
		c.Put(fmt.Sprintf("k%d", k), CacheEntry{Body: []byte{byte(k)}, RunID: fmt.Sprintf("r%d", k)})
	}
	if _, ok := c.Get("k0"); ok {
		t.Fatal("oldest entry should have been evicted")
	}
	for _, key := range []string{"k1", "k2"} {
		if _, ok := c.Get(key); !ok {
			t.Fatalf("entry %s missing", key)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("cache len %d, want 2", c.Len())
	}
}

// TestClientDisconnectMidQueueSkipsRun is the regression test for the
// disconnect leak: a client that gives up while its job is still queued
// must release its handler immediately, and the queued job — having no
// remaining waiters — must be skipped rather than computed for nobody.
func TestClientDisconnectMidQueueSkipsRun(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4})

	// Pin the only worker so the request parks in the queue.
	release := make(chan struct{})
	for !s.pool.TrySubmitPriority(func() { <-release }, 0) {
		time.Sleep(time.Millisecond)
	}
	for s.pool.Depth() > 0 {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/map", bytes.NewReader(loadBody(t, 0)))
	if err != nil {
		t.Fatal(err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(httpReq)
		if err == nil {
			readBody(t, resp)
		}
		done <- err
	}()
	for s.pool.Depth() != 1 { // wait for the job to be admitted and queued
		time.Sleep(time.Millisecond)
	}

	cancel()
	if err := <-done; err == nil {
		t.Fatal("canceled client got a response, want a context error")
	}
	// The handler must have returned before the job ran — the worker is
	// still pinned — and recorded the disconnect.
	deadline := time.Now().Add(5 * time.Second)
	for s.mapCanceled.Value() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("map_canceled_total = %d, want 1", s.mapCanceled.Value())
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.runsSkipped.Value(); got != 0 {
		t.Fatalf("job skipped before the worker even freed up: runs_skipped = %d", got)
	}

	// Let the worker reach the orphaned job: it must skip, not compute.
	close(release)
	s.Close() // waits for the queue to drain
	if got := s.runsSkipped.Value(); got != 1 {
		t.Fatalf("runs_skipped_total = %d, want 1", got)
	}
	var runs uint64
	for _, c := range s.runsTotal {
		runs += c.Value()
	}
	if runs != 0 {
		t.Fatalf("runs_total = %d, want 0: the orphaned job must not execute", runs)
	}
	if d := s.pool.Depth(); d != 0 {
		t.Fatalf("queue depth %d after drain", d)
	}
	if len(s.flights) != 0 {
		t.Fatalf("%d flights leaked after drain", len(s.flights))
	}
}

// TestCoalescingSingleExecution is the regression test for the
// duplicate-compute race: 100 goroutines posting the identical request
// against a cold cache must trigger exactly one execution, with every
// client receiving byte-identical bytes and the disposition counters
// reconciling to hits + misses + coalesced == 100, misses == 1.
func TestCoalescingSingleExecution(t *testing.T) {
	const clients = 100
	s, ts := newTestServer(t, Config{Workers: 2, QueueSize: clients})

	// Pin both workers so the whole fleet arrives while the first
	// request's flight is still pending — the race window the leak fix
	// closes. Without the pins, fast runs would serve stragglers from
	// the cache and never exercise coalescing.
	release := make(chan struct{})
	for pinned := 0; pinned < 2; {
		if s.pool.TrySubmitPriority(func() { <-release }, 0) {
			pinned++
		} else {
			time.Sleep(time.Millisecond)
		}
	}
	for s.pool.Depth() > 0 {
		time.Sleep(time.Millisecond)
	}

	req := testRequest()
	req.Trace = false
	body := mustMarshal(t, req)
	bodies := make([][]byte, clients)
	statuses := make([]int, clients)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/map", "application/json", bytes.NewReader(body))
			if err != nil {
				statuses[k] = -1
				return
			}
			statuses[k] = resp.StatusCode
			bodies[k] = readBody(t, resp)
		}(k)
	}
	time.Sleep(50 * time.Millisecond) // let all 100 join the one flight
	close(release)
	wg.Wait()

	for k, code := range statuses {
		if code != http.StatusOK {
			t.Fatalf("client %d got %d, want 200 for all (identical key, ample queue)", k, code)
		}
		if !bytes.Equal(bodies[0], bodies[k]) {
			t.Fatalf("client %d saw different bytes than client 0", k)
		}
	}

	var runs uint64
	for _, c := range s.runsTotal {
		runs += c.Value()
	}
	if runs != 1 {
		t.Fatalf("runs_total = %d, want exactly 1 execution for 100 identical requests", runs)
	}
	hits, misses, coalesced := s.cacheHits.Value(), s.cacheMisses.Value(), s.coalesced.Value()
	if misses != 1 {
		t.Fatalf("cache misses = %d, want 1 (the leader)", misses)
	}
	if hits+misses+coalesced != clients {
		t.Fatalf("hits %d + misses %d + coalesced %d != %d", hits, misses, coalesced, clients)
	}
	if coalesced == 0 {
		t.Fatal("no request coalesced: the race window never opened")
	}
	if len(s.flights) != 0 {
		t.Fatalf("%d flights leaked", len(s.flights))
	}
}
