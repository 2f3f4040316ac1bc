package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"runtime"
	"strings"
	"testing"
)

// TestConfigWithDefaults is the table-driven contract for every Config
// field: zero selects the documented default, negatives follow each
// field's documented convention (QueueSize: zero slots; MaxN:
// uncapped; the bounded stores: their defaults), and
// explicit positives pass through untouched.
func TestConfigWithDefaults(t *testing.T) {
	gmp := runtime.GOMAXPROCS(0)
	cases := []struct {
		name string
		in   Config
		want func(t *testing.T, got Config)
	}{
		{"zero selects defaults", Config{}, func(t *testing.T, got Config) {
			if got.Workers != gmp {
				t.Errorf("Workers = %d, want GOMAXPROCS %d", got.Workers, gmp)
			}
			if got.QueueSize != 64 || got.CacheSize != 1024 || got.RunHistory != 256 || got.MaxN != 2048 {
				t.Errorf("defaults not applied: %+v", got)
			}
			if len(got.Classes) != len(DefaultClasses()) {
				t.Errorf("Classes = %+v, want DefaultClasses", got.Classes)
			}
		}},
		{"negative queue means zero slots", Config{QueueSize: -5}, func(t *testing.T, got Config) {
			if got.QueueSize != 0 {
				t.Errorf("QueueSize = %d, want 0 (documented: negative = no queue slots)", got.QueueSize)
			}
		}},
		{"positive queue passes through", Config{QueueSize: 7}, func(t *testing.T, got Config) {
			if got.QueueSize != 7 {
				t.Errorf("QueueSize = %d, want 7", got.QueueSize)
			}
		}},
		{"negative workers fall back to GOMAXPROCS", Config{Workers: -3}, func(t *testing.T, got Config) {
			if got.Workers != gmp {
				t.Errorf("Workers = %d, want %d", got.Workers, gmp)
			}
		}},
		{"positive workers pass through", Config{Workers: 5}, func(t *testing.T, got Config) {
			if got.Workers != 5 {
				t.Errorf("Workers = %d, want 5", got.Workers)
			}
		}},
		{"negative cache and history select defaults", Config{CacheSize: -1, RunHistory: -9}, func(t *testing.T, got Config) {
			if got.CacheSize != 1024 || got.RunHistory != 256 {
				t.Errorf("CacheSize = %d, RunHistory = %d, want defaults 1024/256", got.CacheSize, got.RunHistory)
			}
		}},
		{"positive cache and history pass through", Config{CacheSize: 2, RunHistory: 3}, func(t *testing.T, got Config) {
			if got.CacheSize != 2 || got.RunHistory != 3 {
				t.Errorf("CacheSize = %d, RunHistory = %d, want 2/3", got.CacheSize, got.RunHistory)
			}
		}},
		{"negative maxn disables the cap", Config{MaxN: -1}, func(t *testing.T, got Config) {
			if got.MaxN != 0 {
				t.Errorf("MaxN = %d, want 0 (uncapped)", got.MaxN)
			}
		}},
		{"positive maxn passes through", Config{MaxN: 100}, func(t *testing.T, got Config) {
			if got.MaxN != 100 {
				t.Errorf("MaxN = %d, want 100", got.MaxN)
			}
		}},
		{"custom classes pass through", Config{Classes: []Class{{Name: "only", Priority: 0}}}, func(t *testing.T, got Config) {
			if len(got.Classes) != 1 || got.Classes[0].Name != "only" {
				t.Errorf("Classes = %+v, want the custom set", got.Classes)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.want(t, tc.in.withDefaults()) })
	}
}

// TestNegativeQueueSizeBehavesAsDocumented wires a negative QueueSize
// all the way through New: the pool must have zero queue slots, so a
// submission with every worker busy is shed rather than silently
// queued.
func TestNegativeQueueSizeBehavesAsDocumented(t *testing.T) {
	s := New(Config{Workers: 1, QueueSize: -1})
	defer s.Close()
	release := make(chan struct{})
	// Spin until the worker goroutine reaches its wait loop and takes
	// the pin: with zero slots a submission needs an idle worker.
	for !s.pool.TrySubmitPriority(func() { <-release }, 0) {
		runtime.Gosched()
	}
	for s.pool.Depth() > 0 {
		runtime.Gosched() // wait for the worker to pick the pin up
	}
	if s.pool.TrySubmitPriority(func() {}, 0) {
		t.Fatal("negative QueueSize must mean zero queue slots: busy worker + no slot must shed")
	}
	close(release)
}

func TestCostModelColdPredictsZero(t *testing.T) {
	m := NewCostModel()
	if got := m.Predict("slrh1", 256); got != 0 {
		t.Fatalf("cold model predicted %v, want 0", got)
	}
	if _, _, w := m.Coefficients("slrh1"); w != 0 {
		t.Fatalf("cold model weight %v, want 0", w)
	}
}

func TestCostModelFitsLine(t *testing.T) {
	m := NewCostModel()
	// cost(n) = 0.01 + 0.001·n, observed repeatedly at three sizes.
	for i := 0; i < 5; i++ {
		for _, n := range []int{64, 256, 1024} {
			m.Observe("slrh2", n, 0.01+0.001*float64(n))
		}
	}
	alpha, beta, w := m.Coefficients("slrh2")
	if w == 0 {
		t.Fatal("model has no weight after observations")
	}
	if math.Abs(alpha-0.01) > 1e-6 || math.Abs(beta-0.001) > 1e-9 {
		t.Fatalf("fit (%v, %v), want (0.01, 0.001)", alpha, beta)
	}
	want := 0.01 + 0.001*512
	if got := m.Predict("slrh2", 512); math.Abs(got-want) > 1e-6 {
		t.Fatalf("Predict(512) = %v, want %v", got, want)
	}
	// Observations are per heuristic: slrh1 stays cold.
	if got := m.Predict("slrh1", 512); got != 0 {
		t.Fatalf("unrelated heuristic predicted %v, want 0", got)
	}
}

func TestCostModelSinglePointExtrapolatesProportionally(t *testing.T) {
	m := NewCostModel()
	m.Observe("slrh1", 256, 0.256)
	if got, want := m.Predict("slrh1", 512), 0.512; math.Abs(got-want) > 1e-9 {
		t.Fatalf("one-point Predict(512) = %v, want %v (pure proportionality)", got, want)
	}
}

func TestCostModelClampsNegativeSlope(t *testing.T) {
	m := NewCostModel()
	// Decreasing cost with size would price huge requests as free.
	m.Observe("slrh3", 64, 1.0)
	m.Observe("slrh3", 1024, 0.1)
	_, beta, _ := m.Coefficients("slrh3")
	if beta < 0 {
		t.Fatalf("beta = %v, want clamped >= 0", beta)
	}
	if got := m.Predict("slrh3", 1<<20); got <= 0 {
		t.Fatalf("Predict after clamp = %v, want positive", got)
	}
}

func TestCostModelTracksDrift(t *testing.T) {
	m := NewCostModel()
	for i := 0; i < 30; i++ {
		m.Observe("slrh1", 256, 0.1)
	}
	for i := 0; i < 30; i++ {
		m.Observe("slrh1", 256, 0.5) // the instance got 5x slower
	}
	if got := m.Predict("slrh1", 256); math.Abs(got-0.5) > 0.01 {
		t.Fatalf("after drift Predict = %v, want ≈ 0.5 (EW update must forget old regime)", got)
	}
}

func TestAdmissionColdAdmitsEverything(t *testing.T) {
	a := NewAdmission(NewCostModel(), 2, 1)
	cls := Class{Name: "interactive", TargetSeconds: 0.001}
	for i := 0; i < 100; i++ {
		if d := a.Decide("slrh1", 1<<20, cls); !d.Admit {
			t.Fatal("cold model must admit (open cold-start)")
		}
	}
	if got := a.Backlog(); got != 0 {
		t.Fatalf("cold admissions accumulated backlog %v, want 0", got)
	}
}

func TestAdmissionShedsByPredictedCost(t *testing.T) {
	m := NewCostModel()
	m.Observe("slrh1", 256, 10) // one run of |T|=256 costs ~10s
	a := NewAdmission(m, 1, 1)
	cls := Class{Name: "interactive", TargetSeconds: 1}
	d := a.Decide("slrh1", 256, cls)
	if d.Admit {
		t.Fatal("10s predicted vs 1s target must shed")
	}
	if d.Reason != shedCost {
		t.Fatalf("reason = %d, want cost", d.Reason)
	}
	// Excess is ~9s, so the model-derived Retry-After must be ≥ 9 — not
	// the constant floor of 1.
	if d.RetryAfterSeconds < 9 {
		t.Fatalf("Retry-After = %d, want ≥ 9 (model-derived, not the constant)", d.RetryAfterSeconds)
	}

	// A target-less class is never cost-shed.
	if d := a.Decide("slrh1", 256, Class{Name: "best-effort"}); !d.Admit {
		t.Fatal("targetless class must not cost-shed")
	}
	a.Complete(10)
}

func TestAdmissionBacklogAccounting(t *testing.T) {
	m := NewCostModel()
	m.Observe("slrh1", 256, 2)
	a := NewAdmission(m, 2, 1)
	roomy := Class{Name: "batch", TargetSeconds: 100}
	d1 := a.Decide("slrh1", 256, roomy)
	d2 := a.Decide("slrh1", 256, roomy)
	if !d1.Admit || !d2.Admit {
		t.Fatal("roomy target must admit both")
	}
	if got := a.Backlog(); math.Abs(got-4) > 1e-9 {
		t.Fatalf("backlog = %v, want 4", got)
	}
	// With 4s of predicted backlog over 2 workers, a third request sees
	// 2s of wait; a 3s target cannot also fit its own ~2s cost.
	if d := a.Decide("slrh1", 256, Class{Name: "tight", TargetSeconds: 3}); d.Admit {
		t.Fatal("backlog must count against the target")
	}
	a.Complete(d1.Predicted)
	a.Complete(d2.Predicted)
	if got := a.Backlog(); got != 0 {
		t.Fatalf("backlog after completion = %v, want 0", got)
	}
	if r := a.QueueRetry(); r != 1 {
		t.Fatalf("drained QueueRetry = %d, want the floor 1", r)
	}
}

func TestClassFor(t *testing.T) {
	cfg := Config{}.withDefaults()
	cls, err := cfg.classFor("")
	if err != nil || cls.Name != DefaultClassName {
		t.Fatalf("empty class → (%+v, %v), want batch", cls, err)
	}
	cls, err = cfg.classFor("  Interactive ")
	if err != nil || cls.Name != "interactive" {
		t.Fatalf("sloppy spelling → (%+v, %v), want interactive", cls, err)
	}
	if _, err := cfg.classFor("platinum"); err == nil {
		t.Fatal("unknown class must error")
	}
	// A custom set without "batch" falls back to its first class.
	custom := Config{Classes: []Class{{Name: "only", Priority: 0}}}.withDefaults()
	cls, err = custom.classFor("")
	if err != nil || cls.Name != "only" {
		t.Fatalf("custom-set default → (%+v, %v), want only", cls, err)
	}
}

// TestClassSharesCacheKeyAndBytes: the class field steers admission
// only — requests differing solely in class share one cache key, one
// computation, and byte-identical bodies.
func TestClassSharesCacheKeyAndBytes(t *testing.T) {
	a, b := testRequest(), testRequest()
	a.Class, b.Class = "interactive", "best-effort"
	if a.Key() != b.Key() {
		t.Fatal("requests differing only in class must share a cache key")
	}

	s, ts := newTestServer(t, Config{})
	first := postMap(t, ts, mustMarshal(t, a))
	firstBody := readBody(t, first)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first = %d: %s", first.StatusCode, firstBody)
	}
	second := postMap(t, ts, mustMarshal(t, b))
	secondBody := readBody(t, second)
	if second.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second class should hit the shared entry, got %q", second.Header.Get("X-Cache"))
	}
	if string(firstBody) != string(secondBody) {
		t.Fatal("classes changed response bytes")
	}
	// The machine "class" field of the grid echo is legitimate; the
	// service class name must not appear anywhere.
	if strings.Contains(string(firstBody), "interactive") {
		t.Fatal("canonical echo must not leak the service class into the body")
	}
	var runs uint64
	for _, c := range s.runsTotal {
		runs += c.Value()
	}
	if runs != 1 {
		t.Fatalf("two classes of one scenario executed %d runs, want 1", runs)
	}
}

func TestUnknownClassRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := testRequest()
	req.Class = "platinum"
	resp := postMap(t, ts, mustMarshal(t, req))
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown class = %d (%s), want 400", resp.StatusCode, body)
	}
}

// TestCostShedOverHTTP warms the model through real traffic, then
// provokes a cost shed via a class whose target nothing can meet: the
// 429 must carry a Retry-After and the shed must be attributed to the
// cost reason.
func TestCostShedOverHTTP(t *testing.T) {
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
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("impossible class = %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("cost shed missing Retry-After")
	}
	if got := s.shedTotal[shedCost].Value(); got != 1 {
		t.Fatalf("shed_total{cost} = %d, want 1", got)
	}
	// The same scenario in a roomy class is admitted: the shed was the
	// class target, not the scenario.
	probe.Class = "batch"
	resp = postMap(t, ts, mustMarshal(t, probe))
	readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch class = %d, want 200", resp.StatusCode)
	}
}

// TestPredictionCalibrationMetrics: once the model is warm, every
// executed run records its predicted cost and the predicted/actual
// ratio, so calibration is observable.
func TestPredictionCalibrationMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := testRequest()
	req.Trace = false
	for i := 0; i < 3; i++ {
		req.Seed = uint64(100 + i)
		resp := postMap(t, ts, mustMarshal(t, req))
		readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d = %d", i, resp.StatusCode)
		}
	}
	h := heuristicIndex("slrh1")
	// The first run found a cold model (predicted 0, unrecorded); the
	// later two must be calibrated.
	if got := s.predRatio[h].Count(); got != 2 {
		t.Fatalf("prediction_ratio count = %d, want 2", got)
	}
	if got := s.predSeconds[h].Count(); got != 2 {
		t.Fatalf("predicted_seconds count = %d, want 2", got)
	}
}

func TestCapacityEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	req := testRequest()
	req.Trace = false
	for i := 0; i < 2; i++ {
		req.Seed = uint64(200 + i)
		req.N = 48 + 16*i // two sizes pin the slope
		readBody(t, postMap(t, ts, mustMarshal(t, req)))
	}

	resp, err := http.Get(ts.URL + "/v1/capacity")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/capacity = %d: %s", resp.StatusCode, body)
	}
	var rep CapacityReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("capacity report not JSON: %v\n%s", err, body)
	}
	if rep.Workers != 2 || len(rep.Classes) != len(DefaultClasses()) || len(rep.Models) != len(heuristicNames) {
		t.Fatalf("report shape wrong: %+v", rep)
	}
	var slrh1 *ModelReport
	for i := range rep.Models {
		if rep.Models[i].Heuristic == "slrh1" {
			slrh1 = &rep.Models[i]
		}
	}
	if slrh1 == nil || slrh1.Observations == 0 || len(slrh1.Sustainable) == 0 {
		t.Fatalf("slrh1 model not fitted after traffic: %+v", slrh1)
	}
	for _, r := range slrh1.Sustainable {
		if r.CostSeconds <= 0 || r.ReqPerSec <= 0 {
			t.Fatalf("sustainable rate not positive: %+v", r)
		}
	}

	// Focused answer.
	resp, err = http.Get(ts.URL + "/v1/capacity?heuristic=slrh1&n=96&class=interactive")
	if err != nil {
		t.Fatal(err)
	}
	body = readBody(t, resp)
	if err := json.Unmarshal(body, &rep); err != nil || rep.Answer == nil {
		t.Fatalf("focused capacity answer missing: %v %s", err, body)
	}
	if rep.Answer.Heuristic != "slrh1" || rep.Answer.N != 96 || rep.Answer.Class != "interactive" {
		t.Fatalf("answer echoes wrong query: %+v", rep.Answer)
	}
	if rep.Answer.CostSeconds <= 0 || rep.Answer.ReqPerSec <= 0 {
		t.Fatalf("answer lacks positive estimates: %+v", rep.Answer)
	}

	// Every spelling POST /v1/map accepts is accepted here too, and the
	// answer echoes the canonical name.
	for _, spelling := range []struct{ query, want string }{
		{"SLRH1", "slrh1"}, {"%20slrh1", "slrh1"}, {"MaxMax", "maxmax"},
	} {
		resp, err := http.Get(ts.URL + "/v1/capacity?n=96&heuristic=" + spelling.query)
		if err != nil {
			t.Fatal(err)
		}
		body := readBody(t, resp)
		var got CapacityReport
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("capacity?heuristic=%s = %d: %s", spelling.query, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &got); err != nil || got.Answer == nil || got.Answer.Heuristic != spelling.want {
			t.Fatalf("capacity?heuristic=%s answered %s, want heuristic %q", spelling.query, body, spelling.want)
		}
	}

	// Bad queries are client errors.
	for _, q := range []string{"?n=banana", "?heuristic=slrh9", "?class=platinum", "?n=-4"} {
		resp, err := http.Get(ts.URL + "/v1/capacity" + q)
		if err != nil {
			t.Fatal(err)
		}
		readBody(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("capacity%s = %d, want 400", q, resp.StatusCode)
		}
	}
	_ = s
}

// TestCalibrate warms every heuristic's model offline — the `slrhd
// -capacity` self-report path.
func TestCalibrate(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	if err := s.Calibrate(); err != nil {
		t.Fatal(err)
	}
	for _, h := range heuristicNames {
		if _, _, w := s.model.Coefficients(h); w == 0 {
			t.Fatalf("heuristic %s still cold after Calibrate", h)
		}
		if got := s.model.Predict(h, 1024); got <= 0 {
			t.Fatalf("heuristic %s predicts %v after Calibrate, want positive", h, got)
		}
	}
}
