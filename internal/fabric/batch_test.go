package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"adhocgrid/internal/serve"
)

// TestSweepExpandOrderAndDefaults pins the expansion contract: cross
// product in cases→heuristics→ns→seeds order, each axis in listed
// order, with singleton defaults for omitted axes.
func TestSweepExpandOrderAndDefaults(t *testing.T) {
	s := &SweepSpec{
		Heuristics: []string{"slrh1", "maxmax"},
		Cases:      []string{"B", "A"},
		Ns:         []int{96, 64},
		Seeds:      []uint64{3},
		Alpha:      0.5, Beta: 0.3,
	}
	got := s.Expand()
	if len(got) != 8 {
		t.Fatalf("Expand returned %d requests, want 8", len(got))
	}
	var order []string
	for _, r := range got {
		order = append(order, fmt.Sprintf("%s/%s/%d/%d", r.Case, r.Heuristic, r.N, r.Seed))
	}
	want := []string{
		"B/slrh1/96/3", "B/slrh1/64/3", "B/maxmax/96/3", "B/maxmax/64/3",
		"A/slrh1/96/3", "A/slrh1/64/3", "A/maxmax/96/3", "A/maxmax/64/3",
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("expansion order[%d] = %s, want %s (full: %v)", i, order[i], want[i], order)
		}
	}

	d := (&SweepSpec{Alpha: 0.5, Beta: 0.3}).Expand()
	if len(d) != 1 {
		t.Fatalf("default sweep expanded to %d requests, want 1", len(d))
	}
	if d[0].Case != "A" || d[0].Heuristic != "slrh1" || d[0].N != 0 || d[0].Seed != 1 {
		t.Fatalf("default expansion = %+v, want case A / slrh1 / n 0 / seed 1", d[0])
	}
}

// TestSweepExpandCarriesSharedKnobs: the per-axis fields vary, the
// shared knobs replicate onto every request.
func TestSweepExpandCarriesSharedKnobs(t *testing.T) {
	s := &SweepSpec{
		Seeds: []uint64{1, 2},
		Alpha: 0.7, Beta: 0.2, DeltaT: 500, Horizon: 4000,
		Adaptive: true, EnergyScale: 1.5, Faults: "drop:2@3", Class: "batch",
	}
	for i, r := range s.Expand() {
		if r.Alpha != 0.7 || r.Beta != 0.2 || r.DeltaT != 500 || r.Horizon != 4000 ||
			!r.Adaptive || r.EnergyScale != 1.5 || r.Faults != "drop:2@3" || r.Class != "batch" {
			t.Fatalf("expanded request %d dropped shared knobs: %+v", i, r)
		}
	}
}

// TestSweepSizeSaturates pins the pre-expansion count: exact up to the
// limit, limit+1 past it, and no overflow when the axes multiply past
// the int range. It never calls Expand.
func TestSweepSizeSaturates(t *testing.T) {
	axes := func(cases, heuristics, ns, seeds int) *SweepSpec {
		return &SweepSpec{
			Cases: make([]string, cases), Heuristics: make([]string, heuristics),
			Ns: make([]int, ns), Seeds: make([]uint64, seeds),
		}
	}
	cases := []struct {
		name  string
		spec  *SweepSpec
		limit int
		want  int
	}{
		{"defaults", axes(0, 0, 0, 0), 1024, 1},
		{"batch_sweep shape", axes(1, 2, 2, 12), 1024, 48},
		{"exactly the limit", axes(2, 2, 2, 2), 16, 16},
		{"one past the limit", axes(17, 0, 0, 0), 16, 17},
		{"paper sweep over the cap", axes(2, 2, 1, 50000), 1024, 1025},
		{"four 100-value axes", axes(100, 100, 100, 100), 1024, 1025},
		{"four 65536-value axes", axes(65536, 65536, 65536, 65536), 1024, 1025},
		{"product past the int range", axes(65536, 65536, 65536, 65536), math.MaxInt, math.MaxInt},
	}
	for _, tc := range cases {
		if got := tc.spec.Size(tc.limit); got != tc.want {
			t.Errorf("%s: Size(%d) = %d, want %d", tc.name, tc.limit, got, tc.want)
		}
	}
}

// requireCheapCapRefusal posts body to a one-backend fleet's batch
// handler and requires a 400 over the cap that allocated under 8 MB.
func requireCheapCapRefusal(t *testing.T, body []byte) {
	t.Helper()
	f := newTestFleet(t, 1, func(c *Config) { c.ProbeInterval = time.Hour })
	h := f.router.Handler()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/map/batch", bytes.NewReader(body))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "exceeds the cap") {
		t.Fatalf("status %d (%s), want 400 over the cap", rec.Code, rec.Body.String())
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8<<20 {
		t.Fatalf("rejecting a %d-byte batch allocated %.1f MB; the cap must be checked before the batch is built",
			len(body), float64(grew)/(1<<20))
	}
}

// TestBatchSweepOverCapAllocatesLittle sends a 200,000-item sweep (a
// ~290 KB body) and requires the 400 to come before expansion: the
// expanded requests alone would take ~32 MB.
func TestBatchSweepOverCapAllocatesLittle(t *testing.T) {
	seeds := make([]uint64, 50000)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	body, err := json.Marshal(BatchRequest{Sweep: &SweepSpec{
		Cases: []string{"A", "B"}, Heuristics: []string{"slrh1", "maxmax"},
		Ns: []int{64}, Seeds: seeds, Alpha: 0.5, Beta: 0.3,
	}})
	if err != nil {
		t.Fatal(err)
	}
	requireCheapCapRefusal(t, body)
}

// TestBatchItemsOverCapAllocatesLittle sends a 1 MiB explicit list of
// ~350,000 empty items and requires the 400 at item 1,025, before the
// list is built: decoded in full it takes ~290 MB.
func TestBatchItemsOverCapAllocatesLittle(t *testing.T) {
	body := []byte(`{"items":[{}` + strings.Repeat(`,{}`, (1<<20)/3) + `]}`)
	requireCheapCapRefusal(t, body)
}

// batchLine is the decoded shape of one NDJSON result line.
type batchLine struct {
	Index      int             `json:"index"`
	Key        string          `json:"key"`
	Backend    string          `json:"backend"`
	Status     int             `json:"status"`
	Body       json.RawMessage `json:"body"`
	Error      string          `json:"error"`
	RetryAfter string          `json:"retry_after"`
	Done       bool            `json:"done"`
	Items      int             `json:"items"`
	OK         int             `json:"ok"`
	Failed     int             `json:"failed"`
}

// parseBatch splits an NDJSON batch response into item lines and the
// summary line, asserting the overall framing.
func parseBatch(t *testing.T, body []byte) ([]batchLine, batchLine) {
	t.Helper()
	var items []batchLine
	var summary batchLine
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	for i, raw := range lines {
		var l batchLine
		l.Status = -1
		if err := json.Unmarshal(raw, &l); err != nil {
			t.Fatalf("line %d is not JSON: %v (%s)", i, err, raw)
		}
		if l.Done {
			if i != len(lines)-1 {
				t.Fatalf("summary line at position %d of %d; must be last", i, len(lines))
			}
			summary = l
			continue
		}
		items = append(items, l)
	}
	if !summary.Done {
		t.Fatalf("batch response has no summary line")
	}
	return items, summary
}

// TestBatchSweepDeterministicOrder runs a sweep through a 2-backend
// fleet and checks: items stream in input order with per-item status,
// bodies match direct backend answers byte for byte, and an immediate
// re-run reproduces the entire NDJSON response byte-identically.
func TestBatchSweepDeterministicOrder(t *testing.T) {
	f := newTestFleet(t, 2, nil)
	sweep := `{"sweep": {"heuristics": ["slrh1", "maxmax"], "ns": [64, 96], "seeds": [5], "alpha": 0.5, "beta": 0.3}}`

	code, hdr, body := postJSON(t, f.client, f.front.URL+"/v1/map/batch", sweep)
	if code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", code, body)
	}
	if got := hdr.Get("X-Batch-Items"); got != "4" {
		t.Fatalf("X-Batch-Items = %q, want 4", got)
	}
	items, summary := parseBatch(t, body)
	if len(items) != 4 || summary.Items != 4 || summary.OK != 4 || summary.Failed != 0 {
		t.Fatalf("batch shape: %d lines, summary %+v; want 4 items all ok", len(items), summary)
	}
	// Input order: the sweep expands heuristics outermost (slrh1 then
	// maxmax), ns inner (64 then 96).
	wantKeys := make([]string, 4)
	for i, rq := range []serve.Request{
		{N: 64, Case: "A", Heuristic: "slrh1", Seed: 5, Alpha: 0.5, Beta: 0.3},
		{N: 96, Case: "A", Heuristic: "slrh1", Seed: 5, Alpha: 0.5, Beta: 0.3},
		{N: 64, Case: "A", Heuristic: "maxmax", Seed: 5, Alpha: 0.5, Beta: 0.3},
		{N: 96, Case: "A", Heuristic: "maxmax", Seed: 5, Alpha: 0.5, Beta: 0.3},
	} {
		wantKeys[i] = serve.CanonicalKey(rq)
	}
	for i, it := range items {
		if it.Index != i {
			t.Fatalf("line %d carries index %d; gather order must equal input order", i, it.Index)
		}
		if it.Key != wantKeys[i] {
			t.Fatalf("line %d key %s, want %s (sweep expansion order)", i, it.Key, wantKeys[i])
		}
		if it.Status != http.StatusOK || it.Backend == "" || len(it.Body) == 0 {
			t.Fatalf("line %d: status %d backend %q body %d bytes; want a full 200 answer",
				i, it.Status, it.Backend, len(it.Body))
		}
	}

	// Per-item bodies are the backend's answer compacted: compare with a
	// direct request for the same scenario.
	direct := `{"n": 64, "case": "A", "heuristic": "slrh1", "seed": 5, "alpha": 0.5, "beta": 0.3}`
	_, _, directBody := postJSON(t, f.client, f.urls[0]+"/v1/map", direct)
	var compact bytes.Buffer
	if err := json.Compact(&compact, bytes.TrimSpace(directBody)); err != nil {
		t.Fatalf("compact direct body: %v", err)
	}
	if !bytes.Equal([]byte(items[0].Body), compact.Bytes()) {
		t.Fatalf("batch item body differs from the direct backend answer")
	}

	// Determinism across repeats: the whole NDJSON response, byte for byte.
	code2, _, body2 := postJSON(t, f.client, f.front.URL+"/v1/map/batch", sweep)
	if code2 != http.StatusOK {
		t.Fatalf("batch repeat: status %d", code2)
	}
	if !bytes.Equal(body, body2) {
		t.Fatalf("batch response not byte-identical across repeats (%d vs %d bytes)", len(body), len(body2))
	}
	wantMetrics(t, f, `slrhrouter_batch_items_total{status="ok"} 8`)
}

// TestBatchItemsPerItemStatus posts an explicit item list where one
// item is router-side invalid: it gets a local 400 line in position
// while its neighbours still run.
func TestBatchItemsPerItemStatus(t *testing.T) {
	f := newTestFleet(t, 2, nil)
	batch := `{"items": [
		{"n": 64, "case": "A", "heuristic": "slrh1", "seed": 2, "alpha": 0.5, "beta": 0.3},
		{"n": 64, "case": "Z", "heuristic": "slrh1", "seed": 2, "alpha": 0.5, "beta": 0.3},
		{"n": 96, "case": "A", "heuristic": "maxmax", "seed": 2, "alpha": 0.5, "beta": 0.3}
	]}`
	code, _, body := postJSON(t, f.client, f.front.URL+"/v1/map/batch", batch)
	if code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", code, body)
	}
	items, summary := parseBatch(t, body)
	if len(items) != 3 || summary.OK != 2 || summary.Failed != 1 {
		t.Fatalf("summary %+v over %d lines; want ok=2 failed=1", summary, len(items))
	}
	if items[0].Status != http.StatusOK || items[2].Status != http.StatusOK {
		t.Fatalf("valid neighbours got %d and %d; the bad item must not poison the batch",
			items[0].Status, items[2].Status)
	}
	if items[1].Status != http.StatusBadRequest || items[1].Error == "" || items[1].Backend != "" {
		t.Fatalf("invalid item line = %+v; want a router-local 400 with an error and no backend", items[1])
	}
}

// TestBatchRejects pins the request-shape 400s and the expansion cap.
func TestBatchRejects(t *testing.T) {
	f := newTestFleet(t, 1, func(c *Config) { c.MaxBatchItems = 2 })
	cases := []struct {
		name, body, wantFrag string
	}{
		{"empty", `{}`, "empty batch"},
		{"both", `{"items": [{"n": 64, "alpha": 0.5, "beta": 0.3}], "sweep": {"alpha": 0.5, "beta": 0.3}}`, "not both"},
		{"garbage", `{nope`, "bad batch body"},
		{"unknown field", `{"sweeps": {}}`, "bad batch body"},
		{"unknown item field", `{"items": [{"n": 64, "alpha": 0.5, "beta": 0.3, "bogus": 1}]}`, "unknown field"},
		{"items over cap", `{"items": [{}, {}, {}]}`, "exceeds the cap"},
		{"over cap", `{"sweep": {"ns": [64, 80, 96], "alpha": 0.5, "beta": 0.3}}`, "exceeds the cap"},
	}
	for _, tc := range cases {
		code, _, body := postJSON(t, f.client, f.front.URL+"/v1/map/batch", tc.body)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", tc.name, code, body)
		}
		if !strings.Contains(string(body), tc.wantFrag) {
			t.Fatalf("%s: error %q lacks %q", tc.name, body, tc.wantFrag)
		}
	}
}
