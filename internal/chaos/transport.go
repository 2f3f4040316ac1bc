package chaos

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"adhocgrid/internal/rng"
)

// DefaultPath is the request path the transport intercepts. Health
// probes (/readyz), capacity queries and trace lookups pass through
// untouched and uncounted, so the per-backend request counters the
// fault windows index are driven purely by the deterministic map
// traffic — wall-clock probe cadence never perturbs a replay.
const DefaultPath = "/v1/map"

// Transport is a fault-injecting http.RoundTripper: requests to
// registered backends on the intercepted path are counted per backend,
// matched against the plan's windows, and disturbed accordingly;
// everything else flows straight to the inner transport. All byte- and
// chunk-level choices derive from rng.New seeded by (seed, backend,
// request index), so two transports with the same plan, seed and
// request sequence inject byte-identical faults.
type Transport struct {
	inner http.RoundTripper
	plan  *Plan
	seed  uint64
	path  string

	mu     sync.Mutex
	names  map[string]string // URL host -> logical backend name
	counts map[string]int    // logical name -> intercepted-request count
}

// NewTransport wraps inner (nil selects http.DefaultTransport) with the
// plan's faults, seeded for deterministic replay. Register the fleet's
// backends before routing traffic through it.
func NewTransport(inner http.RoundTripper, plan *Plan, seed uint64) *Transport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &Transport{
		inner:  inner,
		plan:   plan,
		seed:   seed,
		path:   DefaultPath,
		names:  make(map[string]string),
		counts: make(map[string]int),
	}
}

// Register binds a backend base URL ("http://host:port") to the logical
// name the plan's rules use.
func (t *Transport) Register(name, baseURL string) {
	host := strings.TrimPrefix(strings.TrimPrefix(baseURL, "http://"), "https://")
	host = strings.TrimSuffix(host, "/")
	t.mu.Lock()
	defer t.mu.Unlock()
	t.names[host] = name
}

// Count returns how many intercepted requests the named backend has
// seen.
func (t *Transport) Count(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// next resolves the request's backend name and claims its next request
// index; ok is false for unregistered hosts or uninjected paths.
func (t *Transport) next(req *http.Request) (name string, n int, ok bool) {
	if req.URL.Path != t.path {
		return "", 0, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	name, ok = t.names[req.URL.Host]
	if !ok {
		return "", 0, false
	}
	n = t.counts[name]
	t.counts[name] = n + 1
	return name, n, true
}

// ruleRand derives the deterministic generator for one (backend,
// request) pair: the plan seed folded with the SHA-256 of the label, so
// distinct requests draw independent, replayable streams.
func (t *Transport) ruleRand(name string, n int) *rng.Rand {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s|%d", name, n)))
	return rng.New(t.seed ^ binary.BigEndian.Uint64(sum[:8]))
}

// RoundTrip applies the first matching fault rule to the request, or
// passes it through unharmed.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	name, n, ok := t.next(req)
	if !ok {
		return t.inner.RoundTrip(req)
	}
	rule := t.plan.Match(name, n)
	if rule == nil {
		return t.inner.RoundTrip(req)
	}
	switch rule.Kind {
	case Drop:
		return nil, fmt.Errorf("chaos: dropped connection to %s (request %d)", name, n)
	case Delay:
		if err := sleepCtx(req, rule.Amount); err != nil {
			return nil, err
		}
		return t.inner.RoundTrip(req)
	case Blackhole:
		<-req.Context().Done()
		return nil, fmt.Errorf("chaos: blackholed request %d to %s: %w", n, name, req.Context().Err())
	case Burst5xx:
		return synth5xx(req), nil
	case SlowBody:
		resp, err := t.inner.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		// Chunk size drawn once per request: 1..16 bytes between pauses.
		chunk := 1 + t.ruleRand(name, n).Intn(16)
		resp.Body = &slowBody{inner: resp.Body, req: req, chunk: chunk, pause: rule.Amount}
		return resp, nil
	case Reset:
		resp, err := t.inner.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		resp.Body = &resetBody{inner: resp.Body, remaining: resetCut(t.ruleRand(name, n), resp.ContentLength), name: name, n: n}
		return resp, nil
	}
	return t.inner.RoundTrip(req)
}

// sleepCtx pauses for d, cancellable by the request context.
func sleepCtx(req *http.Request, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	timer := time.NewTimer(d) //lint:wallclock injected network latency against live sockets; never a scheduling input
	defer timer.Stop()
	select {
	case <-req.Context().Done():
		return fmt.Errorf("chaos: delay aborted: %w", req.Context().Err())
	case <-timer.C:
		return nil
	}
}

// synth5xx fabricates the brown-out answer: a well-formed 503 that
// never reached the backend.
func synth5xx(req *http.Request) *http.Response {
	body := []byte(`{"error":"chaos: injected 503 burst"}` + "\n")
	return &http.Response{
		Status:        "503 Service Unavailable",
		StatusCode:    http.StatusServiceUnavailable,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": []string{"application/json"}},
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// resetCut picks where the reset severs the body: a deterministic point
// in the middle half of the response when its length is known, else a
// small fixed-range prefix.
func resetCut(r *rng.Rand, contentLength int64) int {
	if contentLength > 1 {
		quarter := int(contentLength / 4)
		if quarter < 1 {
			quarter = 1
		}
		return quarter + r.Intn(2*quarter)
	}
	return 16 + r.Intn(48)
}

// slowBody dribbles the inner body chunk by chunk with a pause between
// reads, aborting promptly when the request context dies.
type slowBody struct {
	inner io.ReadCloser
	req   *http.Request
	chunk int
	pause time.Duration
}

func (s *slowBody) Read(p []byte) (int, error) {
	if err := sleepCtx(s.req, s.pause); err != nil {
		return 0, err
	}
	if len(p) > s.chunk {
		p = p[:s.chunk]
	}
	return s.inner.Read(p)
}

func (s *slowBody) Close() error { return s.inner.Close() }

// resetBody delivers a prefix of the inner body, then fails like a
// severed connection.
type resetBody struct {
	inner     io.ReadCloser
	remaining int
	name      string
	n         int
}

func (r *resetBody) Read(p []byte) (int, error) {
	if r.remaining <= 0 {
		return 0, fmt.Errorf("chaos: connection to %s reset mid-body (request %d): %w", r.name, r.n, io.ErrUnexpectedEOF)
	}
	if len(p) > r.remaining {
		p = p[:r.remaining]
	}
	n, err := r.inner.Read(p)
	r.remaining -= n
	if err == io.EOF && r.remaining > 0 {
		// Body shorter than the cut: the reset never fired; pass EOF.
		return n, err
	}
	return n, err
}

func (r *resetBody) Close() error { return r.inner.Close() }
