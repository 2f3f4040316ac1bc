// Command slrhd is the long-running scheduling service: an HTTP/JSON
// daemon that prices and maps ad hoc grid scenarios on demand with the
// SLRH heuristics (DESIGN.md §12).
//
// Endpoints:
//
//	POST /v1/map              map one scenario (same knobs as slrhsim,
//	                          plus a "class" service-class field)
//	GET  /v1/runs/{id}/trace  trace document of a recent traced run
//	GET  /v1/capacity         fitted cost models + sustainable rates
//	GET  /metrics             Prometheus text metrics
//	GET  /healthz             liveness
//	GET  /readyz              readiness (503 while draining)
//
// SIGINT/SIGTERM drain gracefully: readiness flips off, the listener
// stops accepting, every accepted run finishes, then the process exits.
//
// Examples:
//
//	slrhd -addr :8080 -workers 4 -queue 64
//	slrhd -smoke           # start on a random port, self-test, drain, exit
//	slrhd -admission-smoke # self-test the cost-predictive admission path
//	slrhd -capacity        # calibrate the cost model, print the capacity
//	                       # report, exit
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"adhocgrid/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "slrhd: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs, opts := newFlags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := serve.Config{
		Workers:    *opts.workers,
		QueueSize:  *opts.queue,
		CacheSize:  *opts.cache,
		RunHistory: *opts.runs,
		MaxN:       *opts.maxN,
	}
	switch {
	case *opts.smoke:
		return runSmoke(cfg)
	case *opts.admissionSmoke:
		return runAdmissionSmoke(cfg)
	case *opts.capacity:
		return runCapacity(cfg)
	case *opts.parity != "":
		return runParity(*opts.parity)
	}
	return runDaemon(*opts.addr, *opts.drainTimeout, cfg)
}

// options collects the parsed flag values.
type options struct {
	addr           *string
	workers        *int
	queue          *int
	cache          *int
	runs           *int
	maxN           *int
	drainTimeout   *time.Duration
	smoke          *bool
	admissionSmoke *bool
	capacity       *bool
	parity         *string
}

// newFlags declares the flag set (shared by the daemon and smoke paths).
func newFlags() (*flag.FlagSet, options) {
	fs := flag.NewFlagSet("slrhd", flag.ContinueOnError)
	return fs, options{
		addr:         fs.String("addr", ":8080", "listen address"),
		workers:      fs.Int("workers", 0, "concurrent runs (0 = GOMAXPROCS)"),
		queue:        fs.Int("queue", 64, "accepted-but-waiting run bound; overflow answers 429"),
		cache:        fs.Int("cache", 1024, "result-cache capacity, responses"),
		runs:         fs.Int("runs", 256, "retained trace documents"),
		maxN:         fs.Int("maxn", 2048, "largest |T| accepted per request (-1 = unlimited)"),
		drainTimeout: fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown bound"),
		smoke:        fs.Bool("smoke", false, "start on a loopback port, self-test the endpoints, drain and exit"),
		admissionSmoke: fs.Bool("admission-smoke", false,
			"start on a loopback port, self-test the cost-predictive admission path (model warm-up, capacity answer, cost shed with model-derived Retry-After), drain and exit"),
		capacity: fs.Bool("capacity", false,
			"calibrate the cost model with probe runs, print this instance's capacity report as JSON and exit"),
		parity: fs.String("parity", "",
			"comma-separated base URLs of running slrhd instances; POST a probe request to each and assert the responses are byte-identical, then exit (fleet self-test)"),
	}
}

// runParity is `slrhd -parity addr1,addr2,...`: the fleet byte-parity
// self-test. Every listed instance is asked to map the same probe
// scenario; the determinism contract (DESIGN.md §12) says the bodies
// must be byte-identical no matter which instance — or whose cache —
// answers, which is exactly what makes consistent-hash routing and
// failover in the fabric tier (DESIGN.md §17) transparent to clients.
func runParity(addrs string) error {
	var urls []string
	for _, a := range strings.Split(addrs, ",") {
		if a = strings.TrimSpace(a); a != "" {
			urls = append(urls, strings.TrimRight(a, "/"))
		}
	}
	if len(urls) < 2 {
		return fmt.Errorf("-parity needs at least two addresses, got %d", len(urls))
	}
	client := &http.Client{Timeout: 120 * time.Second}
	var first []byte
	for i, u := range urls {
		body, _, err := post(client, u+"/v1/map", smokeRequest)
		if err != nil {
			return fmt.Errorf("parity probe to %s: %w", u, err)
		}
		if i == 0 {
			first = body
			continue
		}
		if !bytes.Equal(body, first) {
			return fmt.Errorf("parity violated: %s answered %d bytes differing from %s's %d bytes",
				u, len(body), urls[0], len(first))
		}
	}
	fmt.Printf("parity: %d instances answered byte-identically (%d bytes)\n", len(urls), len(first))
	return nil
}

// runDaemon serves until SIGINT/SIGTERM, then drains.
func runDaemon(addr string, drainTimeout time.Duration, cfg serve.Config) error {
	s := serve.New(cfg)
	defer s.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	fmt.Printf("slrhd listening on %s\n", ln.Addr())

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-errCh:
		return fmt.Errorf("serve: %w", err)
	case sig := <-stop:
		fmt.Printf("slrhd: %s received, draining\n", sig)
	}
	s.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	s.Close() // runs every still-queued job before returning
	fmt.Println("slrhd: drained cleanly")
	return nil
}

// smokeRequest is the ScaleBench-sized scenario the self-test maps.
const smokeRequest = `{"n": 96, "case": "A", "heuristic": "slrh1", "seed": 1, "alpha": 0.5, "beta": 0.3, "trace": true}`

// runSmoke boots the service on a loopback port, exercises every
// endpoint (map miss + byte-identical hit, trace, metrics, health,
// readiness flip), then drains. Non-nil return means the smoke failed.
func runSmoke(cfg serve.Config) error {
	s := serve.New(cfg)
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	fmt.Printf("smoke: serving on %s\n", base)
	client := &http.Client{Timeout: 60 * time.Second}

	miss, missHdr, err := post(client, base+"/v1/map", smokeRequest)
	if err != nil {
		return fmt.Errorf("map (miss): %w", err)
	}
	if missHdr.Get("X-Cache") != "miss" {
		return fmt.Errorf("first map response X-Cache = %q, want miss", missHdr.Get("X-Cache"))
	}
	hit, hitHdr, err := post(client, base+"/v1/map", smokeRequest)
	if err != nil {
		return fmt.Errorf("map (hit): %w", err)
	}
	if hitHdr.Get("X-Cache") != "hit" {
		return fmt.Errorf("second map response X-Cache = %q, want hit", hitHdr.Get("X-Cache"))
	}
	if !bytes.Equal(miss, hit) {
		return fmt.Errorf("cache hit not byte-identical to miss")
	}
	fmt.Printf("smoke: map ok, %d response bytes, hit == miss\n", len(miss))

	traceBody, _, err := get(client, base+"/v1/runs/"+missHdr.Get("X-Run-Id")+"/trace")
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	fmt.Printf("smoke: trace ok, %d bytes\n", len(traceBody))

	if _, _, err := get(client, base+"/healthz"); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	if _, _, err := get(client, base+"/readyz"); err != nil {
		return fmt.Errorf("readyz: %w", err)
	}
	metrics, _, err := get(client, base+"/metrics")
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	for _, want := range []string{
		`slrhd_map_requests_total{code="200"} 2`,
		"slrhd_cache_hits_total 1",
		"slrhd_cache_misses_total 1",
		`slrhd_runs_total{heuristic="slrh1"} 1`,
	} {
		if !strings.Contains(string(metrics), want) {
			return fmt.Errorf("metrics missing %q", want)
		}
	}
	fmt.Println("smoke: health/ready/metrics ok")

	capBody, _, err := get(client, base+"/v1/capacity")
	if err != nil {
		return fmt.Errorf("capacity: %w", err)
	}
	if !strings.Contains(string(capBody), `"models"`) {
		return fmt.Errorf("capacity report missing models section: %s", capBody)
	}
	fmt.Printf("smoke: capacity ok, %d bytes\n", len(capBody))

	s.BeginDrain()
	if body, code, err := getStatus(client, base+"/readyz"); err != nil || code != http.StatusServiceUnavailable {
		return fmt.Errorf("readyz while draining = %d %s (err %v), want 503", code, body, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	s.Close()
	fmt.Println("smoke: drained cleanly — all checks passed")
	return nil
}

// runCapacity is `slrhd -capacity`: warm the cost model with probe
// runs of every heuristic, print the instance's capacity report, exit.
func runCapacity(cfg serve.Config) error {
	s := serve.New(cfg)
	defer s.Close()
	if err := s.Calibrate(); err != nil {
		return err
	}
	rep, err := s.Capacity(serve.CapacityQuery{})
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// runAdmissionSmoke self-tests the cost-predictive admission path: warm
// the model over real traffic, read a capacity answer back, provoke a
// cost shed through a deliberately impossible class target, and check
// the calibration metrics — then drain. Non-nil return means failure.
func runAdmissionSmoke(cfg serve.Config) error {
	// One worker and a class whose target no real run can meet once the
	// model has a single observation.
	cfg.Workers = 1
	cfg.Classes = append(serve.DefaultClasses(),
		serve.Class{Name: "impossible", Priority: 0, TargetSeconds: 1e-9})
	s := serve.New(cfg)
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	fmt.Printf("admission-smoke: serving on %s\n", base)
	client := &http.Client{Timeout: 60 * time.Second}

	// Warm the model: two sizes pin the slope of the slrh1 cost line.
	for i, n := range []int{64, 128} {
		body := fmt.Sprintf(`{"n": %d, "case": "A", "heuristic": "slrh1", "seed": %d, "alpha": 0.5, "beta": 0.3}`, n, 100+i)
		if _, _, err := post(client, base+"/v1/map", body); err != nil {
			return fmt.Errorf("warm-up |T|=%d: %w", n, err)
		}
	}
	fmt.Println("admission-smoke: model warmed on 2 runs")

	capBody, _, err := get(client, base+"/v1/capacity?heuristic=slrh1&n=1024&class=interactive")
	if err != nil {
		return fmt.Errorf("capacity: %w", err)
	}
	var rep struct {
		Answer struct {
			CostSeconds float64 `json:"cost_seconds"`
			ReqPerSec   float64 `json:"req_per_sec"`
		} `json:"answer"`
	}
	if err := json.Unmarshal(capBody, &rep); err != nil {
		return fmt.Errorf("capacity report: %w", err)
	}
	if rep.Answer.CostSeconds <= 0 || rep.Answer.ReqPerSec <= 0 {
		return fmt.Errorf("capacity answer lacks a positive estimate after warm-up: %s", capBody)
	}
	fmt.Printf("admission-smoke: capacity answer ok — sustains %.1f req/s of |T|=1024 slrh1 (%.4fs each)\n",
		rep.Answer.ReqPerSec, rep.Answer.CostSeconds)

	// A warmed model must cost-shed the impossible class with a
	// model-derived Retry-After.
	resp, err := client.Post(base+"/v1/map", "application/json",
		strings.NewReader(`{"n": 64, "case": "A", "heuristic": "slrh1", "seed": 999, "alpha": 0.5, "beta": 0.3, "class": "impossible"}`))
	if err != nil {
		return fmt.Errorf("shed probe: %w", err)
	}
	shedBody, err := readAll(resp)
	if err != nil {
		return fmt.Errorf("shed probe body: %w", err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		return fmt.Errorf("impossible-class request got %d (%s), want 429", resp.StatusCode, shedBody)
	}
	if resp.Header.Get("Retry-After") == "" {
		return fmt.Errorf("cost shed missing Retry-After header")
	}
	fmt.Printf("admission-smoke: cost shed ok — 429 with Retry-After %ss\n", resp.Header.Get("Retry-After"))

	// Unknown classes are client errors, not sheds.
	resp, err = client.Post(base+"/v1/map", "application/json",
		strings.NewReader(`{"n": 64, "case": "A", "heuristic": "slrh1", "seed": 7, "alpha": 0.5, "beta": 0.3, "class": "platinum"}`))
	if err != nil {
		return fmt.Errorf("class probe: %w", err)
	}
	if _, err := readAll(resp); err != nil {
		return fmt.Errorf("class probe body: %w", err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		return fmt.Errorf("unknown class got %d, want 400", resp.StatusCode)
	}

	metrics, _, err := get(client, base+"/metrics")
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	for _, want := range []string{
		`slrhd_shed_total{reason="cost"} 1`,
		`slrhd_prediction_ratio_count{heuristic="slrh1"} 1`,
		`slrhd_model_observations{heuristic="slrh1"} 2`,
	} {
		if !strings.Contains(string(metrics), want) {
			return fmt.Errorf("metrics missing %q", want)
		}
	}
	fmt.Println("admission-smoke: calibration metrics ok")

	s.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	s.Close()
	fmt.Println("admission-smoke: drained cleanly — all checks passed")
	return nil
}

// post issues a POST with a JSON body and returns body + headers,
// erroring on any non-200 status.
func post(client *http.Client, url, body string) ([]byte, http.Header, error) {
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	b, err := readAll(resp)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("status %d: %s", resp.StatusCode, b)
	}
	return b, resp.Header, nil
}

// get issues a GET, erroring on any non-200 status.
func get(client *http.Client, url string) ([]byte, http.Header, error) {
	b, code, err := getStatus(client, url)
	if err != nil {
		return nil, nil, err
	}
	if code != http.StatusOK {
		return nil, nil, fmt.Errorf("GET %s: status %d: %s", url, code, b)
	}
	return b, nil, nil
}

// getStatus issues a GET and returns body + status without judging it.
func getStatus(client *http.Client, url string) ([]byte, int, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, 0, err
	}
	b, err := readAll(resp)
	if err != nil {
		return nil, 0, err
	}
	return b, resp.StatusCode, nil
}

// readAll drains and closes a response body.
func readAll(resp *http.Response) ([]byte, error) {
	b, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return b, err
}
