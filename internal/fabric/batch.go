package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"adhocgrid/internal/serve"
)

// BatchRequest is the body of POST /v1/map/batch: either an explicit
// item list or a compact sweep spec the router expands, never both.
type BatchRequest struct {
	// Items are individual map requests, answered in exactly this order.
	Items []serve.Request `json:"items,omitempty"`
	// Sweep is the compact alternative: the cross product of its axes,
	// expanded router-side in deterministic order.
	Sweep *SweepSpec `json:"sweep,omitempty"`
}

// SweepSpec names a scenario sweep as axes whose cross product the
// router expands into map requests. Expansion order is deterministic:
// cases outermost, then heuristics, then sizes, then seeds, each axis
// in its listed order — so a sweep names not just a set of runs but a
// reproducible sequence, and the batch response bytes are identical
// across repeats.
type SweepSpec struct {
	// Heuristics to run (default ["slrh1"]).
	Heuristics []string `json:"heuristics,omitempty"`
	// Cases to run (default ["A"]).
	Cases []string `json:"cases,omitempty"`
	// Ns are the subtask counts |T| (default [0], the service default).
	Ns []int `json:"ns,omitempty"`
	// Seeds drive workload generation (default [1]).
	Seeds []uint64 `json:"seeds,omitempty"`
	// The remaining knobs apply to every expanded request.
	Alpha       float64 `json:"alpha"`
	Beta        float64 `json:"beta"`
	DeltaT      int64   `json:"deltat,omitempty"`
	Horizon     int64   `json:"horizon,omitempty"`
	Adaptive    bool    `json:"adaptive,omitempty"`
	EnergyScale float64 `json:"energy_scale,omitempty"`
	Faults      string  `json:"faults,omitempty"`
	Class       string  `json:"class,omitempty"`
}

// Size returns how many requests Expand would produce, or limit+1 when
// that is more than limit. The count saturates instead of multiplying
// out, so axes whose product passes the cap (or the int range) are
// measured without allocating anything.
func (s *SweepSpec) Size(limit int) int {
	limit = min(limit, math.MaxInt-1) // keep limit+1 representable
	n := 1
	for _, axis := range []int{len(s.Cases), len(s.Heuristics), len(s.Ns), len(s.Seeds)} {
		if axis == 0 {
			axis = 1 // an empty axis expands to its one default value
		}
		if n > limit/axis {
			return limit + 1
		}
		n *= axis
	}
	return n
}

// Expand materializes the sweep's cross product. Check Size against a
// cap first: a small body can name billions of requests.
func (s *SweepSpec) Expand() []serve.Request {
	heuristics := s.Heuristics
	if len(heuristics) == 0 {
		heuristics = []string{"slrh1"}
	}
	cases := s.Cases
	if len(cases) == 0 {
		cases = []string{"A"}
	}
	ns := s.Ns
	if len(ns) == 0 {
		ns = []int{0}
	}
	seeds := s.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}
	out := make([]serve.Request, 0, len(cases)*len(heuristics)*len(ns)*len(seeds))
	for _, c := range cases {
		for _, h := range heuristics {
			for _, n := range ns {
				for _, seed := range seeds {
					out = append(out, serve.Request{
						N: n, Case: c, Heuristic: h, Seed: seed,
						Alpha: s.Alpha, Beta: s.Beta,
						DeltaT: s.DeltaT, Horizon: s.Horizon,
						Adaptive: s.Adaptive, EnergyScale: s.EnergyScale,
						Faults: s.Faults, Class: s.Class,
					})
				}
			}
		}
	}
	return out
}

// batchItem is one scatter unit: an input-order slot, its canonical
// key and home backend, and the outcome the gather loop streams.
type batchItem struct {
	index int
	key   string
	home  string
	sem   chan struct{} // home member's batch window
	body  []byte        // forwarded request bytes

	res        *proxied // backend answer (any status), nil on router-side error
	status     int      // line status when res is nil
	errMsg     string   // line error when res is nil
	retryAfter string   // Retry-After for router-local 429/503 lines
	canceled   bool     // abandoned because the client disconnected

	done chan struct{}
}

// handleBatch scatters a scenario sweep across the fleet and gathers
// the answers in input order. Each item routes by its own canonical
// key — cache affinity item by item, exactly as if the client had
// posted them individually — with at most Window items in flight per
// home backend. The response is NDJSON: one line per item in input
// order (streamed as soon as the item and all its predecessors are
// done), then a summary line. Per-item bodies are the backend's bytes
// compacted onto one line, so a healthy-fleet batch re-run reproduces
// the whole response byte for byte.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	var breq BatchRequest
	if err := dec.Decode(&breq); err != nil {
		count(rt.batchRequests, http.StatusBadRequest)
		rt.jsonError(w, http.StatusBadRequest, "bad batch body: "+err.Error())
		return
	}
	size := len(breq.Items)
	switch {
	case len(breq.Items) > 0 && breq.Sweep != nil:
		count(rt.batchRequests, http.StatusBadRequest)
		rt.jsonError(w, http.StatusBadRequest, "batch takes items or a sweep, not both")
		return
	case len(breq.Items) > 0:
	case breq.Sweep != nil:
		size = breq.Sweep.Size(rt.cfg.MaxBatchItems)
	default:
		count(rt.batchRequests, http.StatusBadRequest)
		rt.jsonError(w, http.StatusBadRequest, "empty batch: provide items or a sweep")
		return
	}
	if size > rt.cfg.MaxBatchItems {
		count(rt.batchRequests, http.StatusBadRequest)
		rt.jsonError(w, http.StatusBadRequest,
			fmt.Sprintf("batch exceeds the cap of %d items", rt.cfg.MaxBatchItems))
		return
	}
	reqs := breq.Items
	if breq.Sweep != nil {
		reqs = breq.Sweep.Expand()
	}

	ctx := r.Context()
	view := rt.currentView()
	items := make([]*batchItem, len(reqs))
	for i, req := range reqs {
		it := &batchItem{index: i, key: serve.CanonicalKey(req), done: make(chan struct{})}
		it.home = view.ring.Home(it.key)
		if m := view.byURL[it.home]; m != nil {
			it.sem = m.sem
		}
		items[i] = it
		// Router-side screening: an item that cannot even canonicalize
		// and validate is answered 400 locally without burning a backend
		// slot. The backend remains the authority on everything else
		// (class names, size caps, admission).
		if err := req.Canonical().Validate(0); err != nil {
			it.status, it.errMsg = http.StatusBadRequest, err.Error()
			close(it.done)
			continue
		}
		body, err := json.Marshal(req)
		if err != nil {
			it.status, it.errMsg = http.StatusBadRequest, err.Error()
			close(it.done)
			continue
		}
		it.body = body
		//lint:ctxflow scatterItem's first act is a select on ctx.Done (window token) and forward carries the same ctx; named-method spawns are beyond the analyzer's literal-only view
		go rt.scatterItem(ctx, it)
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Batch-Items", strconv.Itoa(len(items)))
	count(rt.batchRequests, http.StatusOK)
	// Nothing below can answer 4xx any more: send the status line now, so
	// a streaming client sees the response start at once instead of when
	// item 0 happens to finish (its place in the window queue is up to
	// the scheduler).
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}
	ok, failed := 0, 0
	clientGone := false
	for _, it := range items {
		if !clientGone {
			select {
			case <-it.done:
			case <-ctx.Done():
				// Client gone: stop writing, but keep reaping. The scatter
				// goroutines unwind on the same dead ctx, and draining them
				// here means the handler returns with zero orphaned work
				// and every item booked in exactly one counter.
				clientGone = true
			}
		}
		if clientGone {
			//lint:ctxflow ctx is already dead here; every scatter goroutine unwinds on that same dead ctx (window select + forward's attempt timeouts), so this reap receive is bounded
			<-it.done
		}
		switch {
		case it.res != nil && it.res.Status == http.StatusOK:
			ok++
			rt.batchItemsOK.Inc()
		case it.canceled:
			rt.batchItemsCanc.Inc()
		default:
			failed++
			rt.batchItemsErr.Inc()
		}
		if clientGone {
			continue
		}
		rt.write(w, renderItemLine(it))
		if flusher != nil {
			flusher.Flush()
		}
	}
	if clientGone {
		return
	}
	rt.write(w, []byte(fmt.Sprintf(`{"done":true,"items":%d,"ok":%d,"failed":%d}`+"\n", len(items), ok, failed)))
}

// scatterItem runs one item: acquire the home backend's window token,
// forward with the ordinary failover path, publish the outcome. A
// failed item degrades to its own well-formed NDJSON line — a budget
// refusal becomes a 429, an exhausted walk a 503 with the attempt
// detail, and a client disconnect a canceled marker the gather loop
// books — the batch as a whole never fails because some items did.
func (rt *Router) scatterItem(ctx context.Context, it *batchItem) {
	defer close(it.done)
	select {
	case <-it.sem:
	case <-ctx.Done():
		it.status, it.errMsg, it.canceled = http.StatusServiceUnavailable, ctx.Err().Error(), true
		return
	}
	defer func() { it.sem <- struct{}{} }()
	rt.batchInflight.Add(1)
	defer rt.batchInflight.Add(-1)
	res, err := rt.forward(ctx, "/v1/map", it.body, it.key)
	if err != nil {
		var be *BudgetError
		switch {
		case ctx.Err() != nil:
			it.status, it.errMsg, it.canceled = http.StatusServiceUnavailable, err.Error(), true
		case errors.As(err, &be):
			it.status, it.errMsg, it.retryAfter = http.StatusTooManyRequests, err.Error(), rt.synthRetryAfter()
		default:
			it.status, it.errMsg, it.retryAfter = http.StatusServiceUnavailable, err.Error(), rt.synthRetryAfter()
		}
		return
	}
	it.res = res
}

// renderItemLine builds one NDJSON result line with a fixed field
// order, embedding the backend body verbatim-but-compacted so the line
// bytes are a pure function of the item's deterministic outcome.
func renderItemLine(it *batchItem) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"index":%d,"key":%s`, it.index, jsonString(it.key))
	if it.res != nil {
		fmt.Fprintf(&b, `,"backend":%s,"status":%d,"body":`, jsonString(it.res.Backend), it.res.Status)
		var compact bytes.Buffer
		if err := json.Compact(&compact, bytes.TrimSpace(it.res.Body)); err != nil {
			// Not JSON (never the case for slrhd backends); quote it.
			b.Write(jsonString(string(it.res.Body)))
		} else {
			b.Write(compact.Bytes())
		}
		// A backend Retry-After (e.g. on a 429) survives into the line
		// verbatim, exactly as the single-request path forwards it.
		if ra := it.res.Header.Get("Retry-After"); ra != "" {
			fmt.Fprintf(&b, `,"retry_after":%s`, jsonString(ra))
		}
	} else {
		fmt.Fprintf(&b, `,"status":%d,"error":%s`, it.status, jsonString(it.errMsg))
		if it.retryAfter != "" {
			fmt.Fprintf(&b, `,"retry_after":%s`, jsonString(it.retryAfter))
		}
	}
	b.WriteString("}\n")
	return b.Bytes()
}

// jsonString renders s as a JSON string literal.
func jsonString(s string) []byte {
	b, err := json.Marshal(s)
	if err != nil {
		// Marshal of a string cannot fail; keep errdrop honest.
		return []byte(`""`)
	}
	return b
}
