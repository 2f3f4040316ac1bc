package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"adhocgrid/internal/fault"
	"adhocgrid/internal/serve"
)

// TestParseEvents covers the -lose machine-loss spec parser.
func TestParseEvents(t *testing.T) {
	cases := []struct {
		name    string
		spec    string
		want    []fault.Event
		wantErr string
	}{
		{name: "single", spec: "1@40000", want: []fault.Event{{Kind: fault.Lose, At: 40000, Machine: 1}}},
		{name: "multi", spec: "0@10000,2@50000,1@60000", want: []fault.Event{
			{Kind: fault.Lose, At: 10000, Machine: 0},
			{Kind: fault.Lose, At: 50000, Machine: 2},
			{Kind: fault.Lose, At: 60000, Machine: 1}}},
		{name: "machine zero at cycle zero", spec: "0@0", want: []fault.Event{{Kind: fault.Lose, At: 0, Machine: 0}}},
		{name: "missing separator", spec: "140000", wantErr: "want machine@cycle"},
		{name: "too many separators", spec: "1@2@3", wantErr: "want machine@cycle"},
		{name: "empty spec", spec: "", wantErr: "want machine@cycle"},
		{name: "bad machine", spec: "x@40000", wantErr: "bad machine"},
		{name: "bad cycle", spec: "1@4e4", wantErr: "bad cycle"},
		{name: "bad trailing event", spec: "1@40000,oops", wantErr: "want machine@cycle"},
		{name: "empty element", spec: "1@40000,", wantErr: "want machine@cycle"},
		{name: "float machine", spec: "1.5@40000", wantErr: "bad machine"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseEvents(tc.spec)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("parseEvents(%q) err = %v, want containing %q", tc.spec, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseEvents(%q): %v", tc.spec, err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("parseEvents(%q) = %+v, want %+v", tc.spec, got, tc.want)
			}
		})
	}
}

// postMap POSTs a request to a test service and returns status + body.
func postMap(t *testing.T, ts *httptest.Server, req serve.Request) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/map", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestJSONParityWithService is the end-to-end acceptance check: for a
// fixed seed, `slrhsim -json` must produce bytes identical to the
// service's POST /v1/map response — on a cache miss and again on the
// cache hit.
func TestJSONParityWithService(t *testing.T) {
	flagSets := [][]string{
		{"-n", "64", "-seed", "11", "-case", "A", "-heuristic", "slrh1", "-alpha", "0.5", "-beta", "0.3", "-json"},
		{"-n", "64", "-seed", "11", "-case", "B", "-heuristic", "slrh3", "-alpha", "0.4", "-beta", "0.2", "-json"},
		{"-n", "64", "-seed", "11", "-case", "C", "-heuristic", "maxmax", "-alpha", "0.5", "-beta", "0.3", "-json"},
		{"-n", "64", "-seed", "11", "-case", "A", "-heuristic", "slrh1", "-alpha", "0.5", "-beta", "0.3",
			"-lose", "1@40000,0@90000", "-json"},
		{"-n", "64", "-seed", "11", "-case", "A", "-heuristic", "slrh1", "-alpha", "0.5", "-beta", "0.3",
			"-faults", "lose:1@20000,slow:links*0.5@[30000,90000],rejoin:1@50000", "-json"},
		// The -lose sugar spelling of the same plan must hit the same
		// cache entry as the pure-DSL request below.
		{"-n", "64", "-seed", "11", "-case", "A", "-heuristic", "slrh1", "-alpha", "0.5", "-beta", "0.3",
			"-lose", "1@20000", "-faults", "slow:links*0.5@[30000,90000],rejoin:1@50000", "-json"},
	}
	requests := []serve.Request{
		{N: 64, Seed: 11, Case: "A", Heuristic: "slrh1", Alpha: 0.5, Beta: 0.3},
		{N: 64, Seed: 11, Case: "B", Heuristic: "slrh3", Alpha: 0.4, Beta: 0.2},
		{N: 64, Seed: 11, Case: "C", Heuristic: "maxmax", Alpha: 0.5, Beta: 0.3},
		{N: 64, Seed: 11, Case: "A", Heuristic: "slrh1", Alpha: 0.5, Beta: 0.3,
			Lose: []serve.LossEvent{{Machine: 1, At: 40000}, {Machine: 0, At: 90000}}},
		{N: 64, Seed: 11, Case: "A", Heuristic: "slrh1", Alpha: 0.5, Beta: 0.3,
			Faults: "lose:1@20000,slow:links*0.5@[30000,90000],rejoin:1@50000"},
		{N: 64, Seed: 11, Case: "A", Heuristic: "slrh1", Alpha: 0.5, Beta: 0.3,
			Faults: "lose:1@20000,slow:links*0.5@[30000,90000],rejoin:1@50000"},
	}

	s := serve.New(serve.Config{})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	for i, flags := range flagSets {
		var cli bytes.Buffer
		if err := run(flags, &cli); err != nil {
			t.Fatalf("slrhsim %v: %v", flags, err)
		}
		status, miss := postMap(t, ts, requests[i])
		if status != http.StatusOK {
			t.Fatalf("service status %d for %+v: %s", status, requests[i], miss)
		}
		if !bytes.Equal(cli.Bytes(), miss) {
			t.Fatalf("CLI and service bytes differ for %v:\ncli:     %s\nservice: %s", flags, cli.Bytes(), miss)
		}
		status, hit := postMap(t, ts, requests[i])
		if status != http.StatusOK {
			t.Fatalf("cache-hit status %d", status)
		}
		if !bytes.Equal(cli.Bytes(), hit) {
			t.Fatalf("CLI and cached service bytes differ for %v", flags)
		}
	}
}

// TestFaultPlanRejection drives malformed or inconsistent fault specs
// through run(): syntax errors surface from the parser, semantic ones
// (duplicates, ranges, ordering) from plan validation inside the run.
// Each case must fail with a distinct, recognizable message.
func TestFaultPlanRejection(t *testing.T) {
	cases := []struct {
		name    string
		flags   []string
		wantErr string
	}{
		{"unknown event kind", []string{"-faults", "explode:1@40"}, "unknown event kind"},
		{"negative cycle", []string{"-faults", "lose:1@-5"}, "cycle"},
		{"non-monotone anchors", []string{"-faults", "lose:1@500,fail:t3@400"}, "non-monotone"},
		{"bad factor", []string{"-faults", "slow:links*1.5@[10,20]"}, "factor"},
		{"duplicate loss", []string{"-faults", "lose:1@40,lose:1@50"}, "machine 1"},
		{"dup loss across forms", []string{"-lose", "1@40", "-faults", "lose:1@50"}, "machine 1"},
		{"machine out of range", []string{"-faults", "lose:99@40"}, "machine 99"},
		{"subtask out of range", []string{"-faults", "fail:t16@40"}, "subtask 16"},
		{"rejoin before loss", []string{"-faults", "rejoin:1@40"}, "machine 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(append([]string{"-n", "16"}, tc.flags...), io.Discard)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("run(%v) err = %v, want containing %q", tc.flags, err, tc.wantErr)
			}
		})
	}
}

// TestTextModeWithFaults smoke-tests the human-readable path under a
// churn plan: the run must verify against the plan and report the
// rejoined machine.
func TestTextModeWithFaults(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-n", "48", "-seed", "3", "-heuristic", "slrh1",
		"-faults", "lose:1@2000,rejoin:1@4000"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"VERIFY      ok", "faults=2", "rejoined at cycle 4000"} {
		if !strings.Contains(text, want) {
			t.Fatalf("faulted text output missing %q:\n%s", want, text)
		}
	}
}

// TestJSONRejectsTextModeOptions pins the flag-compatibility contract.
func TestJSONRejectsTextModeOptions(t *testing.T) {
	for _, flags := range [][]string{
		{"-json", "-gantt", "80"},
		{"-json", "-chain"},
		{"-json", "-trace", "/tmp/x.csv"},
		{"-json", "-assignments", "/tmp/x.csv"},
	} {
		if err := run(flags, io.Discard); err == nil {
			t.Fatalf("run(%v) should refuse text-mode options", flags)
		}
	}
}

// TestTextModeStillWorks smoke-tests the original human-readable path
// through the refactored run().
func TestTextModeStillWorks(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-n", "48", "-seed", "3", "-heuristic", "slrh1"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"heuristic   slrh1", "mapped      48/48", "VERIFY      ok"} {
		if !strings.Contains(text, want) {
			t.Fatalf("text output missing %q:\n%s", want, text)
		}
	}
}

// TestRunUnknownFlagsAndValues exercises the error paths.
func TestRunUnknownFlagsAndValues(t *testing.T) {
	for _, flags := range [][]string{
		{"-case", "Z"},
		{"-heuristic", "nope"},
		{"-heuristic", "maxmax", "-lose", "1@40000"},
		{"-heuristic", "maxmax", "-faults", "lose:1@40000"},
		{"-lose", "garbage"},
		{"-faults", "garbage"},
	} {
		if err := run(append([]string{"-n", "16"}, flags...), io.Discard); err == nil {
			t.Fatalf("run(%v) should fail", flags)
		}
	}
}

// TestJSONRejectsDefaultedZeros: the service schema reads 0 as "use the
// default" for n, deltat and horizon, so an explicit 0 under -json must
// fail rather than silently run the default (text mode runs or rejects
// the 0 as given). Max-Max has no clock, so its ΔT and H stay ignored.
func TestJSONRejectsDefaultedZeros(t *testing.T) {
	cases := []struct {
		name    string
		flags   []string
		wantErr string // empty: the run must succeed
	}{
		{"n zero", []string{"-n", "0"}, "-n 0"},
		{"n zero maxmax", []string{"-n", "0", "-heuristic", "maxmax"}, "-n 0"},
		{"deltat zero", []string{"-n", "16", "-deltat", "0"}, "-deltat 0"},
		{"horizon zero", []string{"-n", "16", "-horizon", "0"}, "-horizon 0"},
		{"horizon zero slrh3", []string{"-n", "16", "-heuristic", "SLRH3", "-horizon", "0"}, "-horizon 0"},
		{"maxmax ignores clock zeros", []string{"-n", "16", "-heuristic", "maxmax", "-deltat", "0", "-horizon", "0"}, ""},
		{"nonzero values run", []string{"-n", "16", "-deltat", "5", "-horizon", "50"}, ""},
		{"energyscale zero is auto in both modes", []string{"-n", "16", "-energyscale", "0"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(append([]string{"-json"}, tc.flags...), io.Discard)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("run(%v): %v", tc.flags, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) ||
				!strings.Contains(err.Error(), "reads 0 as the default") {
				t.Fatalf("run(%v) err = %v, want a %q refusal naming the schema default", tc.flags, err, tc.wantErr)
			}
		})
	}
}
