package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"adhocgrid/internal/serve"
)

// keepEvery selects the successes the post-window oracle recomputes:
// every item whose stream index is a multiple of it.
const keepEvery = 25

// maxErrs bounds the failure descriptions an outcome keeps for printing.
const maxErrs = 5

// outcome is what one closed-loop window observed.
type outcome struct {
	ops     int       // operations sent
	items   int       // map results asked for (48 per batch_sweep op)
	okItems int       // map results answered 200 that passed the inline checks
	failed  int       // map results refused, lost, or answered non-200
	lat     []float64 // per-op latency in ms; +Inf for a failed op
	elapsed float64   // seconds from the first send to the last reply
	wrong   []string  // wrong answers: failed verify_ok or byte identity
	errs    []string  // the first few failures, for the log
	kept    []kept    // successes the oracle recomputes after the window
}

// kept is one successful map result saved for the oracle.
type kept struct {
	index int // item index in the stream
	req   serve.Request
	body  []byte // as received; compacted for batch items
}

// resultHead is the part of a map result the inline check reads.
type resultHead struct {
	VerifyOK bool `json:"verify_ok"`
}

// batchLine is one NDJSON line of a batch response: an item line or the
// closing summary.
type batchLine struct {
	Index  int             `json:"index"`
	Status int             `json:"status"`
	Body   json.RawMessage `json:"body"`
	Error  string          `json:"error"`
	Done   bool            `json:"done"`
	Items  int             `json:"items"`
	OK     int             `json:"ok"`
}

// newClient returns the load generator's HTTP client: at most conns
// connections per host, no proxy, no compression.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
	}
}

// post sends body and returns the status and the whole response body.
func post(ctx context.Context, client *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, b, err
}

// drive runs the stream's clients in a closed loop against base: each
// client sends its next op only after the previous reply. Ops are taken
// in index order from one shared counter. The window closes once dur
// has passed and at least minOps ops have completed, or at the latest
// after 2·dur+20s. expected[e], when set, holds the verified bytes of
// hit_zipf catalogue entry e; every spelling must return exactly them.
func drive(ctx context.Context, client *http.Client, base string, s *stream, expected [][]byte, dur time.Duration, minOps int) *outcome {
	var next, completed atomic.Int64
	hardStop := 2*dur + 20*time.Second
	parts := make([]*outcome, s.clients)
	var wg sync.WaitGroup
	start := time.Now() //lint:wallclock opens the measured window
	for c := range parts {
		o := &outcome{}
		parts[c] = o
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				el := time.Since(start) //lint:wallclock window-close check
				if (el >= dur && completed.Load() >= int64(minOps)) || el >= hardStop {
					return
				}
				i := int(next.Add(1) - 1)
				o.do(ctx, client, base, i, s.at(i), expected)
				completed.Add(1)
			}
		}()
	}
	wg.Wait()
	out := &outcome{elapsed: time.Since(start).Seconds()} //lint:wallclock closes the measured window
	for _, o := range parts {
		out.ops += o.ops
		out.items += o.items
		out.okItems += o.okItems
		out.failed += o.failed
		out.lat = append(out.lat, o.lat...)
		out.wrong = append(out.wrong, o.wrong...)
		out.kept = append(out.kept, o.kept...)
		for _, e := range o.errs {
			if len(out.errs) < maxErrs {
				out.errs = append(out.errs, e)
			}
		}
	}
	return out
}

// do sends op p, the stream's op i, times it and checks the reply.
func (o *outcome) do(ctx context.Context, client *http.Client, base string, i int, p op, expected [][]byte) {
	t0 := time.Now() //lint:wallclock client-observed latency of one op
	status, body, err := post(ctx, client, base+p.path, p.body)
	lat := float64(time.Since(t0).Nanoseconds()) / 1e6 //lint:wallclock closes the latency pair above
	o.ops++
	o.items += len(p.reqs)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %.200s", status, body)
	}
	if err != nil {
		o.failed += len(p.reqs)
		o.lat = append(o.lat, math.Inf(1))
		o.noteErr(fmt.Sprintf("op %d %s: %v", i, p.body, err))
		return
	}
	okBefore := o.okItems
	if p.path == "/v1/map/batch" {
		o.checkBatch(i, p, body)
	} else {
		o.checkMap(i, i, p.reqs[0], body, p.entry, expected)
	}
	if o.okItems-okBefore == len(p.reqs) {
		o.lat = append(o.lat, lat)
	} else {
		o.lat = append(o.lat, math.Inf(1))
	}
}

// checkMap checks one 200 map result: the verified catalogue bytes for
// a hit_zipf entry, verify_ok: true otherwise. A success whose index is
// a multiple of keepEvery is kept for the oracle (warm-up passes -1).
func (o *outcome) checkMap(i, index int, req serve.Request, body []byte, e int, expected [][]byte) {
	if e >= 0 && e < len(expected) && expected[e] != nil {
		if !bytes.Equal(body, expected[e]) {
			o.wrong = append(o.wrong, fmt.Sprintf("op %d: catalogue entry %d (%+v) answered bytes differing from its verified answer", i, e, req))
			return
		}
	} else {
		var h resultHead
		if err := json.Unmarshal(body, &h); err != nil || !h.VerifyOK {
			o.wrong = append(o.wrong, fmt.Sprintf("op %d: request %+v: verify_ok is not true (decode error %v)", i, req, err))
			return
		}
	}
	o.okItems++
	if index%keepEvery == 0 {
		o.kept = append(o.kept, kept{index: index, req: req, body: body})
	}
}

// checkBatch checks a batch response: one line per item in input
// order, then a summary that agrees with the lines.
func (o *outcome) checkBatch(i int, p op, body []byte) {
	lines := bytes.Split(bytes.TrimRight(body, "\n"), []byte("\n"))
	n := len(p.reqs)
	if len(lines) != n+1 {
		o.failed += n
		o.noteErr(fmt.Sprintf("op %d: batch answered %d lines for %d items", i, len(lines), n))
		return
	}
	ok := 0
	for j, raw := range lines[:n] {
		var ln batchLine
		if err := json.Unmarshal(raw, &ln); err != nil || ln.Index != j {
			o.wrong = append(o.wrong, fmt.Sprintf("op %d item %d: malformed or out-of-order line %.200s", i, j, raw))
			continue
		}
		if ln.Status != http.StatusOK {
			o.failed++
			o.noteErr(fmt.Sprintf("op %d item %d (%+v): status %d %s", i, j, p.reqs[j], ln.Status, ln.Error))
			continue
		}
		ok++
		o.checkMap(i, i*n+j, p.reqs[j], ln.Body, -1, nil)
	}
	var sum batchLine
	if err := json.Unmarshal(lines[n], &sum); err != nil || !sum.Done || sum.Items != n || sum.OK != ok {
		o.wrong = append(o.wrong, fmt.Sprintf("op %d: batch summary %.200s disagrees with %d/%d ok lines", i, lines[n], ok, n))
	}
}

// noteErr keeps the first few failure descriptions.
func (o *outcome) noteErr(msg string) {
	if len(o.errs) < maxErrs {
		o.errs = append(o.errs, msg)
	}
}
