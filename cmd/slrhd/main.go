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
//	slrhd -capacity        # calibrate the cost model, print the capacity
//	                       # report, exit
//	slrhd -parity http://10.0.0.1:8080,http://10.0.0.2:8080
//	                       # assert two live instances answer byte-identically
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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
	fs := flag.NewFlagSet("slrhd", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		workers      = fs.Int("workers", 0, "concurrent runs (0 = GOMAXPROCS)")
		queue        = fs.Int("queue", 64, "accepted-but-waiting run bound; overflow answers 429")
		cache        = fs.Int("cache", 1024, "result-cache capacity, responses")
		runs         = fs.Int("runs", 256, "retained trace documents")
		maxN         = fs.Int("maxn", 2048, "largest |T| accepted per request (-1 = unlimited)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown bound")
		capacity     = fs.Bool("capacity", false,
			"calibrate the cost model with probe runs, print this instance's capacity report as JSON and exit")
		parity = fs.String("parity", "",
			"comma-separated base URLs of running slrhd instances; POST a probe request to each and assert the responses are byte-identical, then exit (fleet self-test)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h printed the usage, as asked
		}
		return err
	}
	cfg := serve.Config{
		Workers:    *workers,
		QueueSize:  *queue,
		CacheSize:  *cache,
		RunHistory: *runs,
		MaxN:       *maxN,
	}
	switch {
	case *capacity:
		return runCapacity(cfg)
	case *parity != "":
		return runParity(*parity)
	}
	return runDaemon(*addr, *drainTimeout, cfg)
}

// parityProbe is the ScaleBench-sized scenario -parity maps on every
// instance.
const parityProbe = `{"n": 96, "case": "A", "heuristic": "slrh1", "seed": 1, "alpha": 0.5, "beta": 0.3, "trace": true}`

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
		body, err := post(client, u+"/v1/map", parityProbe)
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

// post issues a POST with a JSON body and returns the response body,
// erroring on any non-200 status.
func post(client *http.Client, url, body string) ([]byte, error) {
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, b)
	}
	return b, nil
}
