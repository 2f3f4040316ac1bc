// Command slrhrouter is the fabric tier: a stateless router that
// consistent-hashes canonical request keys across N slrhd backends
// (cross-fleet cache affinity), fails over to ring successors with
// byte-identical answers, fans scenario sweeps out via
// POST /v1/map/batch, and aggregates per-backend capacity reports into
// one fleet answer (DESIGN.md §17).
//
// Endpoints:
//
//	POST /v1/map              route one map request to its home backend
//	POST /v1/map/batch        scatter a sweep, gather in input order (NDJSON)
//	GET  /v1/runs/{id}/trace  look a run id up across the fleet
//	GET  /v1/capacity         merged fleet capacity report
//	GET  /metrics             slrhrouter_* Prometheus text metrics
//	GET  /healthz             liveness
//	GET  /readyz              readiness (503 while draining or fleetless)
//
// Examples:
//
//	slrhrouter -backends http://10.0.0.1:8080,http://10.0.0.2:8080
//	slrhrouter -backends http://10.0.0.1:8080,http://10.0.0.2:8080 \
//	    -chaos 'blackhole:b0@[0,3]' -chaos-seed 7   # inject faults
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"adhocgrid/internal/chaos"
	"adhocgrid/internal/fabric"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "slrhrouter: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("slrhrouter", flag.ContinueOnError)
	var (
		addr          = fs.String("addr", ":8090", "listen address")
		backends      = fs.String("backends", "", "comma-separated slrhd base URLs (required)")
		replicas      = fs.Int("replicas", fabric.DefaultReplicas, "virtual nodes per backend on the hash ring")
		window        = fs.Int("window", 4, "max in-flight batch items per home backend")
		retries       = fs.Int("retries", 1, "extra attempts per backend before failing over (-1 = none)")
		backoff       = fs.Duration("backoff", 25*time.Millisecond, "base retry backoff (doubles per attempt, jittered)")
		probeInterval = fs.Duration("probe-interval", 2*time.Second, "backend /readyz probe cadence")
		maxBatch      = fs.Int("maxbatch", 1024, "largest batch after sweep expansion")
		drainTimeout  = fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown bound")
		attemptTO     = fs.Duration("attempt-timeout", 10*time.Second, "per-attempt backend timeout, distinct from the client deadline")
		breakerThresh = fs.Int("breaker-threshold", 1, "exhausted candidate walks that trip a backend's circuit breaker open")
		budgetRatio   = fs.Float64("retry-budget-ratio", 0.2, "retry tokens each request deposits into the fleet-wide budget (-1 = none)")
		budgetBurst   = fs.Int("retry-budget-burst", 10, "retry tokens the fleet-wide budget can bank (-1 = refuse all retries)")
		chaosPlan     = fs.String("chaos", "", "fault plan injected between router and backends, e.g. drop:b0@[0,9] (backends named b0.. in -backends order)")
		chaosSeed     = fs.Uint64("chaos-seed", 1, "seed for the chaos plan's deterministic fault schedule")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h printed the usage, as asked
		}
		return err
	}
	cfg := fabric.Config{
		Replicas:         *replicas,
		Window:           *window,
		Retries:          *retries,
		BackoffBase:      *backoff,
		ProbeInterval:    *probeInterval,
		MaxBatchItems:    *maxBatch,
		AttemptTimeout:   *attemptTO,
		BreakerThreshold: *breakerThresh,
		RetryBudgetRatio: *budgetRatio,
		RetryBudgetBurst: *budgetBurst,
	}
	if *backends == "" {
		return fmt.Errorf("-backends is required (comma-separated slrhd base URLs)")
	}
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			cfg.Backends = append(cfg.Backends, strings.TrimRight(b, "/"))
		}
	}
	if *chaosPlan != "" {
		plan, err := chaos.ParsePlan(*chaosPlan)
		if err != nil {
			return fmt.Errorf("-chaos: %w", err)
		}
		tr := chaos.NewTransport(nil, plan, *chaosSeed)
		for i, b := range cfg.Backends {
			tr.Register(fmt.Sprintf("b%d", i), b)
		}
		cfg.Client = &http.Client{Transport: tr}
		fmt.Printf("slrhrouter: chaos plan %q active (seed %d)\n", plan.String(), *chaosSeed)
	}
	return runDaemon(*addr, *drainTimeout, cfg)
}

// runDaemon serves until SIGINT/SIGTERM, then drains.
func runDaemon(addr string, drainTimeout time.Duration, cfg fabric.Config) error {
	rt, err := fabric.New(cfg)
	if err != nil {
		return err
	}
	defer rt.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: rt.Handler()}
	fmt.Printf("slrhrouter listening on %s, %d backends\n", ln.Addr(), rt.Ring().Len())

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-errCh:
		return fmt.Errorf("serve: %w", err)
	case sig := <-stop:
		fmt.Printf("slrhrouter: %s received, draining\n", sig)
	}
	rt.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Println("slrhrouter: drained cleanly")
	return nil
}
