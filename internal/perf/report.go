// Package perf is the machine-readable benchmark harness: it executes a
// named suite of scheduler benchmarks a fixed number of iterations with
// a fixed seed and emits a schema-versioned JSON report that CI diffs
// against a committed baseline (DESIGN.md §14).
//
// Reports deliberately carry no wall-clock timestamps, hostnames or
// other environment fingerprints beyond GOMAXPROCS: two runs of the
// same suite on the same machine should differ only in the measured
// durations, so a report diff is a performance diff.
package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// SchemaVersion identifies the report layout. Compare refuses to diff
// reports across schema versions. v2 made allocs_per_op/bytes_per_op
// optional-but-explicit pointers: an absent field means "not measured"
// and is distinguishable from a measured zero, so the compare gate can
// fail loudly on missing data instead of treating it as 0.
const SchemaVersion = 2

// Metric is one named scalar attached to a benchmark.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// BenchResult is one benchmark's measurement. AllocsPerOp/BytesPerOp
// are pointers so a report that never measured them (hand-trimmed
// baseline, older tool) is distinguishable from one that measured zero;
// reports produced by Run always set both.
type BenchResult struct {
	Name        string   `json:"name"`
	Iterations  int      `json:"iterations"`
	NsPerOp     float64  `json:"ns_per_op"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	// Metrics carries schedule-quality scalars (t100, mapped, …) sampled
	// from the final iteration. They are deterministic given the seed, so
	// a baseline diff in this section is a correctness signal, not noise.
	Metrics []Metric `json:"metrics,omitempty"`
}

// Report is the suite output.
type Report struct {
	SchemaVersion int           `json:"schema_version"`
	Suite         string        `json:"suite"`
	Seed          uint64        `json:"seed"`
	GoMaxProcs    int           `json:"gomaxprocs"`
	Benchmarks    []BenchResult `json:"benchmarks"`
}

// Allocs returns the benchmark's allocs/op and whether it was recorded.
func (b *BenchResult) Allocs() (float64, bool) {
	if b.AllocsPerOp == nil {
		return 0, false
	}
	return *b.AllocsPerOp, true
}

// Bytes returns the benchmark's bytes/op and whether it was recorded.
func (b *BenchResult) Bytes() (float64, bool) {
	if b.BytesPerOp == nil {
		return 0, false
	}
	return *b.BytesPerOp, true
}

// Bench returns the named benchmark result, or nil.
func (r *Report) Bench(name string) *BenchResult {
	for k := range r.Benchmarks {
		if r.Benchmarks[k].Name == name {
			return &r.Benchmarks[k]
		}
	}
	return nil
}

// Write emits the canonical serialization: indented JSON plus a
// trailing newline.
func Write(w io.Writer, r *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes a report to path via Write.
func WriteFile(path string, r *Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := Write(f, r)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// ReadFile loads a report, rejecting unknown fields so baseline drift
// is caught instead of silently ignored.
func ReadFile(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() //lint:errdrop read-side close; a failed close cannot lose data
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var r Report
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &r, nil
}
