package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"adhocgrid/internal/leakcheck"
	"adhocgrid/internal/serve"
)

// TestMain fails the suite if an in-process fleet, a prober or an HTTP
// connection outlives the test that started it.
func TestMain(m *testing.M) {
	os.Exit(leakcheck.Main(m))
}

// testCatalogue is the hit_zipf catalogue size the tests run with.
const testCatalogue = 24

func testStream(t *testing.T, name string, seed uint64) *stream {
	t.Helper()
	s, err := buildStream(name, seed, testCatalogue)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// decodeRequest decodes a map request body the way slrhd does.
func decodeRequest(body []byte) (serve.Request, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var r serve.Request
	err := dec.Decode(&r)
	return r, err
}

func TestStreamsDeterministicPerSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, b, c := testStream(t, name, 1), testStream(t, name, 1), testStream(t, name, 2)
		differs := false
		for i := 0; i < 60; i++ {
			pa, pb, pc := a.at(i), b.at(i), c.at(i)
			if !bytes.Equal(pa.body, pb.body) {
				t.Fatalf("%s op %d differs between two streams of seed 1", name, i)
			}
			differs = differs || !bytes.Equal(pa.body, pc.body)
		}
		if !differs {
			t.Errorf("%s: seeds 1 and 2 generated identical ops", name)
		}
		for k := range a.warm {
			if !bytes.Equal(a.warm[k].body, b.warm[k].body) {
				t.Fatalf("%s warm-up op %d differs between two streams of seed 1", name, k)
			}
		}
	}
}

func TestMixProportions(t *testing.T) {
	want := map[string]int{"slrh1": 500, "slrh2": 100, "slrh3": 200, "maxmax": 200}
	for _, name := range []string{paperMiss, smallMiss} {
		s := testStream(t, name, 7)
		got, faulted, slrh := map[string]int{}, 0, 0
		cases, sizes := map[string]int{}, map[int]int{}
		for i := 0; i < 1000; i++ {
			r := s.at(i).reqs[0]
			got[r.Heuristic]++
			cases[r.Case]++
			sizes[r.N]++
			if r.Heuristic != "maxmax" {
				slrh++
				if r.Faults != "" {
					faulted++
				}
			}
		}
		for h, n := range want {
			if got[h] != n {
				t.Errorf("%s: %d %s requests in 1000, want %d", name, got[h], h, n)
			}
		}
		for _, c := range gridCases {
			if math.Abs(float64(cases[c])-1000.0/3) > 1 {
				t.Errorf("%s: case %s in %d of 1000 requests", name, c, cases[c])
			}
		}
		switch name {
		case paperMiss:
			if faulted != slrh/faultShare {
				t.Errorf("paper_miss: %d of %d SLRH requests carry faults, want %d", faulted, slrh, slrh/faultShare)
			}
			if sizes[1024] != 1000 {
				t.Errorf("paper_miss: %d of 1000 requests at |T|=1024", sizes[1024])
			}
		case smallMiss:
			if faulted != 0 {
				t.Errorf("small_miss: %d requests carry faults, want none", faulted)
			}
			for _, n := range smallSizes {
				if math.Abs(float64(sizes[n])-1000.0/3) > 3 {
					t.Errorf("small_miss: |T|=%d in %d of 1000 requests", n, sizes[n])
				}
			}
		}
	}

	// hit_zipf: rank popularity follows Zipf(1.1) over the full catalogue.
	s, err := newStream(hitZipf, 7)
	if err != nil {
		t.Fatal(err)
	}
	const draws = 20000
	top := s.rankToEn[0]
	hits := 0
	for i := 0; i < draws; i++ {
		if s.at(i).entry == top {
			hits++
		}
	}
	h := 0.0
	for k := 1; k <= catalogueSize; k++ {
		h += 1 / math.Pow(float64(k), zipfS)
	}
	if share, want := float64(hits)/draws, 1/h; math.Abs(share-want) > 0.1*want {
		t.Errorf("hit_zipf: top entry drawn %.4f of the time, want %.4f ±10%%", share, want)
	}

	// batch_sweep: 48 items, two seeds from the reused pool, two fresh.
	b := testStream(t, batchSweep, 7)
	pool := map[uint64]bool{}
	for _, seed := range b.pool {
		pool[seed] = true
	}
	for i := 0; i < 20; i++ {
		p := b.at(i)
		if len(p.reqs) != 48 {
			t.Fatalf("batch op %d has %d items, want 48", i, len(p.reqs))
		}
		seeds := map[uint64]bool{}
		for _, r := range p.reqs {
			seeds[r.Seed] = true
		}
		inPool := 0
		for seed := range seeds {
			if pool[seed] {
				inPool++
			}
		}
		if len(seeds) != 4 || inPool != 2 {
			t.Errorf("batch op %d: %d seeds, %d from the pool; want 4 and 2", i, len(seeds), inPool)
		}
	}
}

func TestGeneratedRequestsValidate(t *testing.T) {
	for _, name := range workloadNames {
		s := testStream(t, name, 3)
		ops := append([]op(nil), s.warm...)
		for i := 0; i < 300; i++ {
			ops = append(ops, s.at(i))
		}
		for _, p := range ops {
			if p.path == "/v1/map" {
				r, err := decodeRequest(p.body)
				if err != nil {
					t.Fatalf("%s: body %s does not decode: %v", name, p.body, err)
				}
				if serve.CanonicalKey(r) != serve.CanonicalKey(p.reqs[0]) {
					t.Fatalf("%s: body %s does not encode request %+v", name, p.body, p.reqs[0])
				}
			}
			for _, r := range p.reqs {
				if err := r.Canonical().Validate(2048); err != nil {
					t.Fatalf("%s: request %+v rejected: %v", name, r, err)
				}
			}
		}
	}
}

func TestSpellingsShareCanonicalKey(t *testing.T) {
	s := testStream(t, hitZipf, 5)
	faulted := 0
	for e, en := range s.catalogue {
		if len(en.spellings) < 6 {
			t.Fatalf("entry %d has %d spellings, want at least 6", e, len(en.spellings))
		}
		if en.req.Faults != "" {
			faulted++
		}
		seen := map[string]bool{}
		for k, body := range en.spellings {
			if seen[string(body)] {
				t.Errorf("entry %d spelling %d repeats an earlier spelling: %s", e, k, body)
			}
			seen[string(body)] = true
			r, err := decodeRequest(body)
			if err != nil {
				t.Fatalf("entry %d spelling %d does not decode: %v\n%s", e, k, err, body)
			}
			if got, want := serve.CanonicalKey(r), serve.CanonicalKey(en.req); got != want {
				t.Errorf("entry %d spelling %d has key %s, want %s\n%s", e, k, got, want, body)
			}
			if err := r.Canonical().Validate(2048); err != nil {
				t.Errorf("entry %d spelling %d rejected: %v", e, k, err)
			}
		}
	}
	if faulted == 0 {
		t.Error("no catalogue entry carries a fault plan, so the lose-sugar spelling is untested")
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for _, c := range []struct{ p, want float64 }{{50, 50}, {1, 1}, {90, 90}, {89.5, 90}} {
		got, err := percentile(xs, c.p)
		if err != nil || got != c.want {
			t.Errorf("p%v of 1..100 = %v, %v; want %v", c.p, got, err, c.want)
		}
	}
	if _, err := percentile(xs, 95); err == nil {
		t.Error("p95 of 100 samples has 5 beyond it and must be refused")
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("p50 of no samples must be refused")
	}
	n := minSamples(95)
	if n != 200 {
		t.Errorf("minSamples(95) = %d, want 200", n)
	}
	if _, err := percentile(make([]float64, n), 95); err != nil {
		t.Errorf("p95 of %d samples refused: %v", n, err)
	}
	if _, err := percentile(make([]float64, n-1), 95); err == nil {
		t.Errorf("p95 of %d samples accepted", n-1)
	}
	withFail := append(append([]float64(nil), xs...), math.Inf(1))
	if got, _ := percentile(withFail, 50); got != 51 {
		t.Errorf("a failure must count as +Inf latency: p50 = %v, want 51", got)
	}

	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	if q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5}); q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v, %v; want 1.5, 4.5", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median(1..4) = %v, want 2.5", m)
	}
}

const metricsBefore = `# HELP slrhd_cache_hits_total map requests served from the result cache
# TYPE slrhd_cache_hits_total counter
slrhd_cache_hits_total 10
# HELP slrhd_shed_total admission sheds, by reason
# TYPE slrhd_shed_total counter
slrhd_shed_total{reason="cost"} 1
slrhd_shed_total{reason="queue"} 0
# HELP slrhd_run_seconds wall time of one run job
# TYPE slrhd_run_seconds histogram
slrhd_run_seconds_bucket{heuristic="slrh1",le="0.01"} 3
slrhd_run_seconds_bucket{heuristic="slrh1",le="+Inf"} 4
slrhd_run_seconds_sum{heuristic="slrh1"} 0.25
slrhd_run_seconds_count{heuristic="slrh1"} 4
slrhd_model_alpha_seconds{heuristic="slrh1"} 1.5e-05
`

func TestMetricsDelta(t *testing.T) {
	before, err := parseMetrics([]byte(metricsBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseMetrics([]byte(strings.NewReplacer(
		"slrhd_cache_hits_total 10", "slrhd_cache_hits_total 25",
		`reason="queue"} 0`, `reason="queue"} 3`,
		`_sum{heuristic="slrh1"} 0.25`, `_sum{heuristic="slrh1"} 0.75`,
		`_count{heuristic="slrh1"} 4`, `_count{heuristic="slrh1"} 6`,
	).Replace(metricsBefore) + "slrhd_cache_misses_total 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	d := delta(before, after)
	for _, c := range []struct {
		name string
		want float64
	}{
		{"slrhd_cache_hits_total", 15},
		{"slrhd_shed_total", 3},
		{"slrhd_run_seconds_sum", 0.5},
		{"slrhd_run_seconds_count", 2},
		{"slrhd_cache_misses_total", 2},
		{"slrhd_run_seconds", 0},
	} {
		if got := d.sum(c.name); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("delta %s = %v, want %v", c.name, got, c.want)
		}
	}
	if got := before.plus(after).sum("slrhd_cache_hits_total"); got != 35 {
		t.Errorf("plus: %v, want 35", got)
	}
	if got := after["slrhd_model_alpha_seconds{heuristic=\"slrh1\"}"]; got != 1.5e-05 {
		t.Errorf("gauge sample = %v", got)
	}
	if _, err := parseMetrics([]byte("no_value_here\n")); err == nil {
		t.Error("a sample line without a value must be rejected")
	}
}

func TestProcReaders(t *testing.T) {
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Fatal(err)
	}
	mb, err := procPeakRSS(os.Getpid())
	if err != nil || mb <= 0 {
		t.Fatalf("peak RSS = %v, %v", mb, err)
	}
}

// TestSmokeEveryWorkload drives each workload at a tiny count through
// an in-process fleet and runs every answer through the oracle.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			s := testStream(t, name, 9)
			m, err := startMemFleet(nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer m.stop()
			client := newClient(s.clients)
			defer client.CloseIdleConnections()
			ctx := context.Background()
			expected, err := warm(ctx, client, m.url, s)
			if err != nil {
				t.Fatal(err)
			}
			ops := 3
			if name == hitZipf {
				ops = 60
			}
			o := drive(ctx, client, m.url, s, expected, 0, ops)
			if o.failed > 0 || len(o.wrong) > 0 || o.okItems != o.items || o.ops < ops {
				t.Fatalf("%d ops, %d/%d ok, %d failed, wrong %v, errs %v", o.ops, o.okItems, o.items, o.failed, o.wrong, o.errs)
			}
			if len(o.kept) == 0 {
				t.Fatal("no success was kept for the oracle")
			}
			if bad := oracle(o.kept, 2); len(bad) > 0 {
				t.Fatalf("oracle: %v", bad)
			}
			// A corrupted answer must not pass the oracle.
			o.kept[0].body = append([]byte(nil), o.kept[0].body...)
			o.kept[0].body[len(o.kept[0].body)/2] ^= 1
			if bad := oracle(o.kept[:1], 1); len(bad) != 1 {
				t.Fatalf("oracle accepted a corrupted body: %v", bad)
			}
			if name == hitZipf {
				hits := 0
				for _, srv := range m.servers {
					var buf bytes.Buffer
					if err := srv.Registry().WriteText(&buf); err != nil {
						t.Fatal(err)
					}
					sm, err := parseMetrics(buf.Bytes())
					if err != nil {
						t.Fatal(err)
					}
					hits += int(sm.sum("slrhd_cache_hits_total"))
				}
				if hits < o.ops {
					t.Errorf("%d cache hits for %d warmed hit_zipf ops", hits, o.ops)
				}
			}
		})
	}
}

func TestTracedLedger(t *testing.T) {
	s := testStream(t, smallMiss, 4)
	out := filepath.Join(t.TempDir(), "trace.json")
	m, wrong, err := traced(context.Background(), s, prefix{decompose: 10, replay: 3}, out)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range wrong {
		// Under the race detector the timing ratio is noise; the
		// byte-for-byte ledger and scoring checks are not.
		if !strings.Contains(msg, "cover") {
			t.Error(msg)
		}
	}
	for _, def := range tracedLayer {
		if _, ok := m[def.name]; !ok {
			t.Errorf("traced run did not report %s", def.name)
		}
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, sp := range doc.Spans {
		names[sp.Name] = true
		if sp.End < sp.Start || sp.ID <= sp.Parent {
			t.Fatalf("malformed span %+v", sp)
		}
	}
	for _, want := range []string{"serve.ExecuteArena", "workload.generate", "core.run", "maxmax.run", "sim.verify",
		"serve.encode", "client.op", "fabric.attempt", "serve.handler"} {
		if !names[want] {
			t.Errorf("trace document has no %s span", want)
		}
	}
}

func TestBenchmarkJSONMatchesReport(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for k, w := range doc.Workloads {
		if k >= len(workloadNames) || w.Name != workloadNames[k] {
			t.Errorf("BENCHMARK.json workload %d is %q", k, w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the benchmark reports %d", len(got), kind, len(want))
			return
		}
		for k := range want {
			if got[k].Name != want[k].name || got[k].Unit != want[k].unit {
				t.Errorf("BENCHMARK.json %s metric %d is %s [%s], the benchmark reports %s [%s]",
					kind, k, got[k].Name, got[k].Unit, want[k].name, want[k].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

// TestDriveStopsOnTime checks the window closes once its duration has
// passed and enough ops completed, not later.
func TestDriveStopsOnTime(t *testing.T) {
	s := testStream(t, hitZipf, 2)
	m, err := startMemFleet(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.stop()
	client := newClient(s.clients)
	defer client.CloseIdleConnections()
	ctx := context.Background()
	expected, err := warm(ctx, client, m.url, s)
	if err != nil {
		t.Fatal(err)
	}
	o := drive(ctx, client, m.url, s, expected, 300*time.Millisecond, 5)
	if o.elapsed < 0.3 || o.elapsed > 5 || o.ops < 5 {
		t.Fatalf("window of 300ms ran %.2fs and %d ops", o.elapsed, o.ops)
	}
}
