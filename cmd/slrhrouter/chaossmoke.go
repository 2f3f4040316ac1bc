package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"adhocgrid/internal/chaos"
	"adhocgrid/internal/fabric"
	"adhocgrid/internal/leakcheck"
	"adhocgrid/internal/serve"
)

// chaosHarness is the shared state of `slrhrouter -chaos-smoke`: three
// persistent in-process slrhd backends, the logical names the fault
// plans address them by, and the canonical answer bytes every check
// compares against. Each scenario boots its own router (fresh breaker
// and budget state) behind a chaos transport over the same backends.
type chaosHarness struct {
	base   fabric.Config
	urls   []string
	names  map[string]string // URL → plan name ("home", "peer0", "peer1")
	home   string            // smokeScenario's home backend URL
	want   []byte            // smokeScenario's canonical answer
	client *http.Client
}

// runChaosSmoke is `make chaos-smoke`: drive every fault class the
// chaos DSL can inject through a live router and assert the hardening
// contract — each fault yields either the byte-identical correct
// answer or a well-formed 503/429 with Retry-After, never a hang, a
// partial body, or a leaked goroutine.
func runChaosSmoke(cfg fabric.Config) error {
	h := &chaosHarness{base: cfg, client: &http.Client{Timeout: 60 * time.Second}}
	var backends []*backend
	for i := 0; i < 3; i++ {
		b, err := startBackend()
		if err != nil {
			return err
		}
		defer b.stop()
		backends = append(backends, b)
		h.urls = append(h.urls, b.url)
	}

	// Name the backends by their ring role for smokeScenario: the fault
	// plans below say "home" and mean it.
	ring := fabric.NewRing(cfg.Replicas)
	for _, u := range h.urls {
		ring.Add(u)
	}
	var req serve.Request
	if err := json.Unmarshal([]byte(smokeScenario), &req); err != nil {
		return fmt.Errorf("smoke scenario: %w", err)
	}
	h.home = ring.Home(serve.CanonicalKey(req))
	h.names = map[string]string{h.home: "home"}
	var peers []string
	for _, u := range h.urls {
		if u != h.home {
			peers = append(peers, u)
		}
	}
	sort.Strings(peers)
	for i, u := range peers {
		h.names[u] = fmt.Sprintf("peer%d", i)
	}

	// The canonical answer: every backend must agree on it byte for
	// byte before any fault is worth injecting.
	for i, u := range h.urls {
		b, _, err := post(h.client, u+"/v1/map", smokeScenario)
		if err != nil {
			return fmt.Errorf("direct map (backend %d): %w", i, err)
		}
		if i == 0 {
			h.want = b
		} else if !bytes.Equal(b, h.want) {
			return fmt.Errorf("backends disagree before chaos: %d vs %d bytes", len(h.want), len(b))
		}
	}
	fmt.Printf("chaos-smoke: 3 backends agree on %d canonical bytes (home %s)\n", len(h.want), h.names[h.home])

	// Single-fault classes against the home backend: the response must
	// be byte-identical, either served through the fault (delay,
	// slowbody) or by failing over around it (drop, 5xx, reset,
	// blackhole).
	faults := []struct {
		title    string
		dsl      string
		failover bool
		mut      func(*fabric.Config)
	}{
		{"drop", "drop:home@[0,99]", true, nil},
		{"delay", "delay:home*40ms@[0,99]", false, nil},
		{"5xx-burst", "5xx:home@[0,99]", true, nil},
		{"slowbody", "slowbody:home*1ms@[0,99]", false, nil},
		{"reset", "reset:home@[0,99]", true, nil},
		{"blackhole", "blackhole:home@[0,99]", true, func(c *fabric.Config) {
			c.AttemptTimeout = 200 * time.Millisecond
		}},
	}
	for _, fc := range faults {
		fc := fc
		err := h.withRouter(fc.dsl, fc.mut, func(base string, rt *fabric.Router) error {
			body, hdr, err := post(h.client, base+"/v1/map", smokeScenario)
			if err != nil {
				return err
			}
			if !bytes.Equal(body, h.want) {
				return fmt.Errorf("answer not byte-identical under fault (%d vs %d bytes)", len(body), len(h.want))
			}
			served := hdr.Get("X-Backend")
			if fc.failover && served == h.home {
				return fmt.Errorf("answer still credited to the faulted home backend")
			}
			if !fc.failover && served != h.home {
				return fmt.Errorf("fault should be survivable in place, but %s answered", h.names[served])
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("%s: %w", fc.title, err)
		}
		fmt.Printf("chaos-smoke: %-10s ok — byte-identical answer (failover=%v)\n", fc.title, fc.failover)
	}

	// Every backend blackholed with an empty retry budget: the walk's
	// free attempt burns its timeout, the next needs a token nobody
	// banked, and the client gets a fast well-formed 429 with a
	// Retry-After — not a hang for the full client deadline.
	err := h.withRouter("blackhole:home@[0,99],blackhole:peer0@[0,99],blackhole:peer1@[0,99]", func(c *fabric.Config) {
		c.AttemptTimeout = 150 * time.Millisecond
		c.Retries = -1
		c.RetryBudgetRatio = -1
		c.RetryBudgetBurst = -1
	}, func(base string, rt *fabric.Router) error {
		body, code, hdr, err := postAny(h.client, base+"/v1/map", smokeScenario)
		if err != nil {
			return err
		}
		if code != http.StatusTooManyRequests {
			return fmt.Errorf("status %d (%s), want 429", code, body)
		}
		if hdr.Get("Retry-After") == "" {
			return fmt.Errorf("429 is missing its Retry-After hint")
		}
		if !strings.Contains(string(body), "retry budget exhausted") {
			return fmt.Errorf("429 body %q lacks the budget detail", body)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("retry-budget: %w", err)
	}
	fmt.Println("chaos-smoke: retry-budget ok — blackholed fleet fails fast with 429 + Retry-After")

	// Fleet-wide 5xx burst: the walk exhausts and the backend's own 503
	// comes back verbatim — a well-formed JSON error, not a router-made
	// wrapper hiding the evidence.
	err = h.withRouter("5xx:home@[0,99],5xx:peer0@[0,99],5xx:peer1@[0,99]", nil,
		func(base string, rt *fabric.Router) error {
			body, code, _, err := postAny(h.client, base+"/v1/map", smokeScenario)
			if err != nil {
				return err
			}
			if code != http.StatusServiceUnavailable {
				return fmt.Errorf("status %d (%s), want the verbatim 503", code, body)
			}
			var parsed struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &parsed); err != nil || parsed.Error == "" {
				return fmt.Errorf("503 body %q is not a well-formed JSON error (%v)", body, err)
			}
			if !strings.Contains(parsed.Error, "chaos: injected 503 burst") {
				return fmt.Errorf("503 error %q is not the backend's verbatim answer", parsed.Error)
			}
			return nil
		})
	if err != nil {
		return fmt.Errorf("fleet-5xx: %w", err)
	}
	fmt.Println("chaos-smoke: fleet-5xx ok — exhausted walk returns the last 5xx verbatim")

	// Batch degradation: home blackholed, budget empty, breaker held
	// shut. Every item homed on the faulted backend degrades to its own
	// well-formed 429 line with a Retry-After; every other item answers
	// 200 with the backend's exact bytes; the summary reconciles.
	if err := h.batchDegradation(); err != nil {
		return fmt.Errorf("batch-degradation: %w", err)
	}
	fmt.Println("chaos-smoke: batch-degradation ok — per-item 429 lines, neighbours unharmed, summary reconciles")

	// Dynamic membership under live traffic: a fourth backend joins and
	// leaves repeatedly while clients hammer the fleet; every response
	// stays a byte-identical 200 and the roster ends where it began.
	if err := h.membershipChurn(); err != nil {
		return fmt.Errorf("membership: %w", err)
	}
	fmt.Println("chaos-smoke: membership ok — join/leave churn invisible to live traffic")

	// Everything above has shut down; stop the persistent backends too
	// (stop is idempotent, so the deferred stops stay harmless) and
	// assert nothing the scenarios spawned survives.
	for _, b := range backends {
		b.stop()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second) //lint:wallclock leak-settle deadline for live goroutine teardown; never a scheduling input
	for {
		leaks := leakcheck.Find()
		if len(leaks) == 0 {
			break
		}
		if time.Now().After(deadline) { //lint:wallclock leak-settle deadline check; never a scheduling input
			for _, g := range leaks {
				fmt.Printf("chaos-smoke: leaked goroutine %s [%s] created by %s\n%s\n", g.ID, g.State, g.CreatedBy, g.Raw)
			}
			return fmt.Errorf("%d goroutine(s) outlived the chaos scenarios", len(leaks))
		}
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Println("chaos-smoke: zero leaked goroutines — all checks passed")
	return nil
}

// withRouter boots a fresh router behind a chaos transport driven by
// the DSL plan, runs the check against its HTTP front, and tears
// everything down.
func (h *chaosHarness) withRouter(dsl string, mut func(*fabric.Config), fn func(base string, rt *fabric.Router) error) error {
	plan, err := chaos.ParsePlan(dsl)
	if err != nil {
		return fmt.Errorf("plan %q: %w", dsl, err)
	}
	tr := chaos.NewTransport(nil, plan, 1)
	for _, url := range h.urls {
		tr.Register(h.names[url], url)
	}
	cfg := h.base
	cfg.Backends = h.urls
	cfg.Client = &http.Client{Transport: tr}
	cfg.ProbeInterval = 200 * time.Millisecond
	cfg.BackoffBase = 5 * time.Millisecond
	if mut != nil {
		mut(&cfg)
	}
	rt, err := fabric.New(cfg)
	if err != nil {
		return err
	}
	defer rt.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: rt.Handler()}
	go func() {
		//lint:errdrop Serve always returns ErrServerClosed after Close; the scenario's assertions are the verdict
		_ = httpSrv.Serve(ln)
	}()
	defer func() {
		//lint:errdrop best-effort teardown between scenarios
		_ = httpSrv.Close()
	}()
	return fn("http://"+ln.Addr().String(), rt)
}

// batchDegradation runs a six-item sweep against a fleet whose home
// backend is blackholed with the budget off and the breaker pinned
// shut, so the per-item outcome is a pure function of ring placement.
func (h *chaosHarness) batchDegradation() error {
	return h.withRouter("blackhole:home@[0,99]", func(c *fabric.Config) {
		c.AttemptTimeout = 150 * time.Millisecond
		c.Retries = -1
		c.RetryBudgetRatio = -1
		c.RetryBudgetBurst = -1
		c.BreakerThreshold = 100 // never trips: each faulted item must fail on its own
	}, func(base string, rt *fabric.Router) error {
		const items = 6
		// Expected outcome per item, straight from ring placement. Each
		// item homed on a healthy backend is first mapped there directly,
		// so its routed attempt is a cache hit: with the budget off an
		// item gets one 150 ms attempt, and a cold run under the race
		// detector on a busy host can outlast it and degrade a healthy
		// item to a 429.
		wantStatus := make([]int, items)
		faulted := 0
		for i := 0; i < items; i++ {
			req := serve.Request{N: 96, Case: "A", Heuristic: "slrh1", Seed: uint64(i + 1), Alpha: 0.5, Beta: 0.3}
			home := rt.Ring().Home(serve.CanonicalKey(req))
			if home == h.home {
				wantStatus[i] = http.StatusTooManyRequests
				faulted++
				continue
			}
			wantStatus[i] = http.StatusOK
			direct := fmt.Sprintf(`{"n": 96, "case": "A", "heuristic": "slrh1", "seed": %d, "alpha": 0.5, "beta": 0.3}`, i+1)
			if _, _, err := post(h.client, home+"/v1/map", direct); err != nil {
				return fmt.Errorf("warming item %d on its home backend: %w", i, err)
			}
		}
		sweep := `{"sweep": {"ns": [96], "seeds": [1, 2, 3, 4, 5, 6], "alpha": 0.5, "beta": 0.3}}`
		body, _, err := post(h.client, base+"/v1/map/batch", sweep)
		if err != nil {
			return err
		}
		lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
		if len(lines) != items+1 {
			return fmt.Errorf("batch emitted %d lines, want %d items + summary", len(lines), items)
		}
		ok, failed := 0, 0
		for i, raw := range lines {
			var line struct {
				Index      *int            `json:"index"`
				Status     int             `json:"status"`
				Body       json.RawMessage `json:"body"`
				Error      string          `json:"error"`
				RetryAfter string          `json:"retry_after"`
				Done       bool            `json:"done"`
				Items      int             `json:"items"`
				OK         int             `json:"ok"`
				Failed     int             `json:"failed"`
			}
			if err := json.Unmarshal(raw, &line); err != nil {
				return fmt.Errorf("line %d is not well-formed JSON: %w (%s)", i, err, raw)
			}
			if line.Done {
				if line.Items != items || line.OK != ok || line.Failed != failed {
					return fmt.Errorf("summary %s does not reconcile with %d ok / %d failed lines", raw, ok, failed)
				}
				continue
			}
			if line.Index == nil || *line.Index != i {
				return fmt.Errorf("line %d out of order: %s", i, raw)
			}
			if line.Status != wantStatus[i] {
				return fmt.Errorf("item %d status %d, want %d (ring placement)", i, line.Status, wantStatus[i])
			}
			if line.Status == http.StatusOK {
				ok++
				if len(line.Body) == 0 {
					return fmt.Errorf("item %d answered 200 with no body", i)
				}
			} else {
				failed++
				if line.RetryAfter == "" || line.Error == "" {
					return fmt.Errorf("degraded item %d lacks retry_after/error detail: %s", i, raw)
				}
			}
		}
		if faulted == 0 {
			return fmt.Errorf("no sweep item homed on the blackholed backend; the degradation path went unexercised")
		}
		fmt.Printf("chaos-smoke: batch spread %d faulted / %d healthy items across the ring\n", faulted, items-faulted)
		return nil
	})
}

// membershipChurn joins and leaves a fourth backend while concurrent
// clients post the smoke scenario, asserting every answer is a
// byte-identical 200 across each ring transition.
func (h *chaosHarness) membershipChurn() error {
	extra, err := startBackend()
	if err != nil {
		return err
	}
	defer extra.stop()
	return h.withRouter("", nil, func(base string, rt *fabric.Router) error {
		api := base + "/v1/members"
		errs := make(chan error, 5)
		var wg sync.WaitGroup
		stopTraffic := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				client := &http.Client{Timeout: 60 * time.Second}
				defer client.CloseIdleConnections()
				for i := 0; ; i++ {
					select {
					case <-stopTraffic:
						return
					default:
					}
					body, _, err := post(client, base+"/v1/map", smokeScenario)
					if err != nil {
						errs <- fmt.Errorf("traffic request %d: %w", i, err)
						return
					}
					if !bytes.Equal(body, h.want) {
						errs <- fmt.Errorf("traffic request %d: bytes diverged during churn", i)
						return
					}
				}
			}()
		}
		for i := 0; i < 8; i++ {
			joinBody := `{"url": "` + extra.url + `"}`
			resp, err := h.client.Post(api, "application/json", strings.NewReader(joinBody))
			if err != nil {
				close(stopTraffic)
				wg.Wait()
				return fmt.Errorf("join %d: %w", i, err)
			}
			//lint:errdrop the status code is the assertion; the join reply body is redundant here
			_, _ = readAll(resp)
			if resp.StatusCode != http.StatusCreated {
				close(stopTraffic)
				wg.Wait()
				return fmt.Errorf("join %d: status %d, want 201", i, resp.StatusCode)
			}
			req, err := http.NewRequest(http.MethodDelete, api+"?url="+extra.url, nil)
			if err != nil {
				close(stopTraffic)
				wg.Wait()
				return err
			}
			resp, err = h.client.Do(req)
			if err != nil {
				close(stopTraffic)
				wg.Wait()
				return fmt.Errorf("leave %d: %w", i, err)
			}
			//lint:errdrop the status code is the assertion; the leave reply body is redundant here
			_, _ = readAll(resp)
			if resp.StatusCode != http.StatusOK {
				close(stopTraffic)
				wg.Wait()
				return fmt.Errorf("leave %d: status %d, want 200", i, resp.StatusCode)
			}
		}
		close(stopTraffic)
		wg.Wait()
		select {
		case err := <-errs:
			return err
		default:
		}
		if got := len(rt.Members()); got != 3 {
			return fmt.Errorf("fleet ended with %d members, want the original 3", got)
		}
		listing, _, err := get(h.client, api)
		if err != nil {
			return fmt.Errorf("final roster: %w", err)
		}
		if strings.Contains(string(listing), extra.url) {
			return fmt.Errorf("departed member still on the roster: %s", listing)
		}
		return nil
	})
}

// postAny issues a POST and returns body, status and headers without
// judging the status (post errors on non-200).
func postAny(client *http.Client, url, body string) ([]byte, int, http.Header, error) {
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return nil, 0, nil, err
	}
	b, err := readAll(resp)
	if err != nil {
		return nil, 0, nil, err
	}
	return b, resp.StatusCode, resp.Header, nil
}
