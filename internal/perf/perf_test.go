package perf

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// report builds a minimal report with the given (name, ns/op) pairs.
// The benchmarks carry no allocs/bytes fields; use setAllocs to add
// them where a test needs the v2 metrics.
func report(pairs ...interface{}) *Report {
	r := &Report{SchemaVersion: SchemaVersion, Suite: DefaultSuite}
	for k := 0; k < len(pairs); k += 2 {
		r.Benchmarks = append(r.Benchmarks, BenchResult{
			Name: pairs[k].(string), Iterations: 1, NsPerOp: pairs[k+1].(float64),
		})
	}
	return r
}

// setAllocs records allocs/op on the named benchmark.
func setAllocs(t *testing.T, r *Report, name string, v float64) {
	t.Helper()
	b := r.Bench(name)
	if b == nil {
		t.Fatalf("setAllocs: no benchmark %s", name)
	}
	b.AllocsPerOp = &v
}

func TestCompareWithinTolerance(t *testing.T) {
	base := report("a", 100.0, "b", 200.0)
	cur := report("a", 109.0, "b", 180.0) // +9% and faster: both fine
	if regs, err := Compare(cur, base, 0.10); err != nil || len(regs) != 0 {
		t.Fatalf("Compare = %v, %v; want clean pass", regs, err)
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	base := report("a", 100.0, "b", 200.0)
	cur := report("a", 150.0, "b", 200.0)
	regs, err := Compare(cur, base, 0.10)
	if err == nil {
		t.Fatal("Compare accepted a 50% regression")
	}
	if len(regs) != 1 || regs[0].Name != "a" {
		t.Fatalf("regressions = %+v, want exactly bench a", regs)
	}
	if regs[0].Growth < 0.49 || regs[0].Growth > 0.51 {
		t.Errorf("growth = %v, want ~0.5", regs[0].Growth)
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	base := report("a", 100.0, "b", 200.0)
	cur := report("a", 100.0)
	if _, err := Compare(cur, base, 0.10); err == nil {
		t.Fatal("Compare accepted shrunken coverage")
	}
	// The other direction — a new benchmark not yet in the baseline —
	// must pass: baselines trail the suite.
	if _, err := Compare(base, cur, 0.10); err != nil {
		t.Fatalf("Compare rejected a superset run: %v", err)
	}
}

func TestCompareSchemaMismatch(t *testing.T) {
	base := report("a", 100.0)
	cur := report("a", 100.0)
	cur.SchemaVersion = SchemaVersion + 1
	if _, err := Compare(cur, base, 0.10); err == nil {
		t.Fatal("Compare accepted mismatched schema versions")
	}
}

// TestComparePerMetricFields drives the per-metric missing-field
// contract through a table: a metric the baseline records is mandatory
// in the current run (absence must fail loudly, never compare as 0),
// while metrics only the current run has are fine — baselines trail.
func TestComparePerMetricFields(t *testing.T) {
	cases := []struct {
		name       string
		baseAllocs *float64 // nil = field absent
		curAllocs  *float64
		wantErr    string // substring of the failure, "" = clean pass
	}{
		{name: "both recorded within slack",
			baseAllocs: pf(10), curAllocs: pf(10.5), wantErr: ""},
		{name: "zero baseline tolerates window noise",
			baseAllocs: pf(0), curAllocs: pf(0.4), wantErr: ""},
		{name: "alloc regression fails",
			baseAllocs: pf(10), curAllocs: pf(30), wantErr: "allocs/op"},
		{name: "new allocation on a zero baseline fails",
			baseAllocs: pf(0), curAllocs: pf(2), wantErr: "allocs/op"},
		{name: "baseline records allocs but current run lacks them",
			baseAllocs: pf(10), curAllocs: nil, wantErr: "missing in current run"},
		{name: "legacy baseline without allocs constrains nothing",
			baseAllocs: nil, curAllocs: pf(500), wantErr: ""},
		{name: "neither side records allocs",
			baseAllocs: nil, curAllocs: nil, wantErr: ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := report("a", 100.0)
			cur := report("a", 100.0)
			base.Benchmarks[0].AllocsPerOp = tc.baseAllocs
			cur.Benchmarks[0].AllocsPerOp = tc.curAllocs
			_, err := Compare(cur, base, 0.10)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Compare = %v, want clean pass", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Compare = %v, want failure containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestCompareNonpositiveNs: a zeroed ns/op in the current run is a
// broken measurement, not an infinite speedup.
func TestCompareNonpositiveNs(t *testing.T) {
	base := report("a", 100.0)
	cur := report("a", 0.0)
	if _, err := Compare(cur, base, 0.10); err == nil || !strings.Contains(err.Error(), "nonpositive") {
		t.Fatalf("Compare = %v, want nonpositive ns_per_op failure", err)
	}
}

// pf returns a pointer to v, for literal optional metrics in tests.
func pf(v float64) *float64 { return &v }

// TestCheckVerdictVacuity pins the verdict seam: a run with no capped
// benchmark is a vacuous pass with a reason — so callers can print SKIP
// instead of a false "met" — while a capped benchmark makes the check
// measured whatever the core count.
func TestCheckVerdictVacuity(t *testing.T) {
	r := &Report{SchemaVersion: SchemaVersion, GoMaxProcs: 1}
	v, err := CheckVerdict(r)
	if err != nil || !v.Vacuous || v.Reason == "" {
		t.Fatalf("no benchmarks: verdict %+v err %v, want vacuous with a reason", v, err)
	}

	r.Benchmarks = append(r.Benchmarks, BenchResult{Name: "helper_bench", Iterations: 1, NsPerOp: 1})
	if v, err = CheckVerdict(r); err != nil || !v.Vacuous {
		t.Fatalf("uncapped only: verdict %+v err %v, want vacuous", v, err)
	}

	r.Benchmarks = append(r.Benchmarks, BenchResult{Name: "slrh1_serial_n256", Iterations: 1, NsPerOp: 1})
	setAllocs(t, r, "slrh1_serial_n256", 0)
	if v, err = CheckVerdict(r); err != nil || v.Vacuous || !strings.Contains(v.Reason, "1 benchmarks") {
		t.Fatalf("single-core with a capped bench: verdict %+v err %v, want a measured pass over 1 benchmark", v, err)
	}
}

// TestCheckAllocCaps pins the allocation gate: a capped benchmark over
// its budget fails, one without a recorded allocs/op fails loudly (the
// gate refuses to assume 0), and uncapped benchmarks are ignored.
func TestCheckAllocCaps(t *testing.T) {
	r := report("slrh1_serial_n256", 100.0, "helper_bench", 50.0)
	r.GoMaxProcs = 1

	// Capped benchmark with allocs_per_op missing: loud failure.
	if _, err := CheckVerdict(r); err == nil || !strings.Contains(err.Error(), "not recorded") {
		t.Fatalf("missing allocs on capped bench: err %v, want 'not recorded' failure", err)
	}

	// Within budget: pass, and the gate reports it ran.
	setAllocs(t, r, "slrh1_serial_n256", 0.2)
	v, err := CheckVerdict(r)
	if err != nil || v.Vacuous {
		t.Fatalf("within budget: verdict %+v err %v, want non-vacuous pass", v, err)
	}

	// Over budget: fail naming the benchmark and the cap.
	setAllocs(t, r, "slrh1_serial_n256", 12)
	if _, err := CheckVerdict(r); err == nil || !strings.Contains(err.Error(), "slrh1_serial_n256") {
		t.Fatalf("over budget: err %v, want failure naming the benchmark", err)
	}

	// An uncapped benchmark may allocate freely without a recorded value.
	if _, ok := AllocCaps["helper_bench"]; ok {
		t.Fatal("test premise broken: helper_bench must not be capped")
	}
}

func TestReportFileRoundTrip(t *testing.T) {
	r := report("a", 123.0)
	setAllocs(t, r, "a", 42)
	r.Seed = 7
	r.GoMaxProcs = 2
	r.Derived = []Metric{{Name: "x", Value: 1.5}}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := WriteFile(path, r); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want, have bytes.Buffer
	if err := Write(&want, r); err != nil {
		t.Fatal(err)
	}
	if err := Write(&have, got); err != nil {
		t.Fatal(err)
	}
	if want.String() != have.String() {
		t.Fatalf("round trip changed the report:\n%s\nvs\n%s", want.String(), have.String())
	}
}

// TestReportCarriesNoTimestamps: the serialized report must not leak
// wall-clock fields — keys are a closed set.
func TestReportCarriesNoTimestamps(t *testing.T) {
	r := report("a", 1.0)
	var buf bytes.Buffer
	if err := Write(&buf, r); err != nil {
		t.Fatal(err)
	}
	for _, banned := range []string{"time", "date", "stamp", "host"} {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		for key := range m {
			if strings.Contains(strings.ToLower(key), banned) {
				t.Errorf("report key %q looks like an environment fingerprint", key)
			}
		}
	}
}

// TestRunSubsetDeterministicMetrics runs the real suite (one fast
// benchmark, one iteration) twice and requires the schedule-quality
// metrics to agree exactly — ns/op may move, t100 may not.
func TestRunSubsetDeterministicMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real scheduler")
	}
	opts := Options{Iters: 1, Filter: []string{"slrh1_serial_n256", "slrh1_uncached_n256"}}
	a, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Benchmarks) != 2 || len(b.Benchmarks) != 2 {
		t.Fatalf("filter selected %d/%d benchmarks, want 2/2", len(a.Benchmarks), len(b.Benchmarks))
	}
	for k := range a.Benchmarks {
		if _, ok := a.Benchmarks[k].Allocs(); !ok {
			t.Fatalf("%s: Run did not record allocs_per_op", a.Benchmarks[k].Name)
		}
		am, bm := a.Benchmarks[k].Metrics, b.Benchmarks[k].Metrics
		if len(am) == 0 {
			t.Fatalf("%s: no metrics sampled", a.Benchmarks[k].Name)
		}
		for i := range am {
			if am[i] != bm[i] {
				t.Errorf("%s metric %s: %v vs %v across runs",
					a.Benchmarks[k].Name, am[i].Name, am[i].Value, bm[i].Value)
			}
		}
	}
	// Cached and uncached must also agree with each other (byte-identical
	// schedules), and the derived speedup must have been computed.
	for i := range a.Benchmarks[0].Metrics {
		if a.Benchmarks[0].Metrics[i] != a.Benchmarks[1].Metrics[i] {
			t.Errorf("cached vs uncached metric %s: %v vs %v",
				a.Benchmarks[0].Metrics[i].Name, a.Benchmarks[0].Metrics[i].Value, a.Benchmarks[1].Metrics[i].Value)
		}
	}
	if _, ok := a.Derive("speedup_plan_cache_n256"); !ok {
		t.Error("derived speedup_plan_cache_n256 missing")
	}
}
