package perf

import (
	"fmt"
	"strings"
)

// DefaultTolerance is the relative ns/op (and allocs/op) growth Compare
// allows before calling a benchmark a regression (10%).
const DefaultTolerance = 0.10

// AllocSlack is the absolute allocs/op headroom Compare adds on top of
// the relative tolerance: allocation counts are near-deterministic, but
// a stray runtime allocation landing inside the measurement window must
// not fail the gate. One allocation per op of slack distinguishes
// "noise" from "a new allocation on the hot path".
const AllocSlack = 1.0

// Regression is one benchmark that got worse than the baseline allows.
type Regression struct {
	Name    string
	Metric  string // "ns_per_op" or "allocs_per_op"
	Base    float64
	Cur     float64
	Growth  float64 // (cur-base)/base; 0 when base is 0
	Message string
}

// Compare diffs cur against base: any benchmark present in both whose
// ns/op or allocs/op grew more than tolerance (allocs additionally get
// AllocSlack of absolute headroom) is a regression; benchmarks the
// baseline has but cur lacks are errors (coverage must not silently
// shrink). Missing fields are handled per metric: a metric the baseline
// records is mandatory in the current run — comparing an absent
// allocs/op as zero would wave every allocation regression through, so
// absence fails loudly instead. A benchmark or metric only cur has is
// fine — baselines are updated by committing a new report. Returns the
// regression list and a non-nil error when the gate should fail.
func Compare(cur, base *Report, tolerance float64) ([]Regression, error) {
	if tolerance <= 0 {
		tolerance = DefaultTolerance
	}
	if cur.SchemaVersion != base.SchemaVersion {
		return nil, fmt.Errorf("schema mismatch: current v%d vs baseline v%d — regenerate the baseline",
			cur.SchemaVersion, base.SchemaVersion)
	}
	var problems []string
	var regs []Regression
	for _, bb := range base.Benchmarks {
		cb := cur.Bench(bb.Name)
		if cb == nil {
			problems = append(problems, fmt.Sprintf("benchmark %s present in baseline but not in current run", bb.Name))
			continue
		}
		if cb.NsPerOp <= 0 {
			problems = append(problems, fmt.Sprintf("%s: nonpositive ns_per_op %g in current run", bb.Name, cb.NsPerOp))
		} else if bb.NsPerOp > 0 {
			growth := (cb.NsPerOp - bb.NsPerOp) / bb.NsPerOp
			if growth > tolerance {
				regs = append(regs, Regression{
					Name:   bb.Name,
					Metric: "ns_per_op",
					Base:   bb.NsPerOp,
					Cur:    cb.NsPerOp,
					Growth: growth,
					Message: fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f ns/op (%+.1f%%, tolerance %.0f%%)",
						bb.Name, cb.NsPerOp, bb.NsPerOp, 100*growth, 100*tolerance),
				})
			}
		}
		if bb.AllocsPerOp == nil {
			continue // pre-allocs baseline entry: nothing to hold cur to
		}
		if cb.AllocsPerOp == nil {
			problems = append(problems, fmt.Sprintf(
				"%s: allocs_per_op present in baseline but missing in current run (refusing to treat it as 0)", bb.Name))
			continue
		}
		baseA, curA := *bb.AllocsPerOp, *cb.AllocsPerOp
		if curA > baseA*(1+tolerance)+AllocSlack {
			growth := 0.0
			if baseA > 0 {
				growth = (curA - baseA) / baseA
			}
			regs = append(regs, Regression{
				Name:   bb.Name,
				Metric: "allocs_per_op",
				Base:   baseA,
				Cur:    curA,
				Growth: growth,
				Message: fmt.Sprintf("%s: %.2f allocs/op vs baseline %.2f allocs/op (tolerance %.0f%% + %.0f slack)",
					bb.Name, curA, baseA, 100*tolerance, AllocSlack),
			})
		}
	}
	if len(problems) > 0 || len(regs) > 0 {
		for _, r := range regs {
			problems = append(problems, r.Message)
		}
		return regs, fmt.Errorf("bench compare failed:\n  %s", strings.Join(problems, "\n  "))
	}
	return regs, nil
}

// ZeroAllocBudget is the allocs/op cap for the arena-backed SLRH
// benchmarks: strictly fewer than one allocation per op. A real
// steady-state allocation contributes at least 1.0/op, so anything
// under this cap is measurement noise, not a hot-path alloc (and the
// pinned allocation pass in measure keeps even that noise at zero in
// practice).
const ZeroAllocBudget = 0.5

// AllocCaps bounds steady-state allocs/op per benchmark, enforced by
// CheckVerdict on every fresh report. The arena-backed SLRH runs must
// be allocation-free; the service-level benchmarks allocate by design
// (HTTP framing, JSON encode/decode) and get hard ceilings with ~2x
// headroom over their recorded baselines so an accidental allocation
// storm still fails the gate. Max-Max builds a fresh state and plan
// cache per run (~2.4k allocs/op at |T|=256); its cap fails the
// per-triplet re-pricing loop the cache replaced (~7.2k).
var AllocCaps = map[string]float64{
	"slrh1_serial_n256":      ZeroAllocBudget,
	"slrh1_serial_n1024":     ZeroAllocBudget,
	"maxmax_n256":            5_000,
	"slrhd_map_n96":          2_500,
	"fabric_router_overhead": 600,
	"admission_decide_x1000": 100,
}

// Verdict is the outcome of checking a report's expectations. A vacuous
// pass is distinct from a real one so callers can say so out loud: a
// gate that "passes" because it could not run is not evidence. The
// allocation gate runs on any report that contains a capped benchmark,
// regardless of core count, so a single-core run still proves the
// zero-alloc property.
type Verdict struct {
	Vacuous bool
	Reason  string // why the check was vacuous, or what it measured
}

// CheckVerdict validates a fresh report's expectations: every capped
// benchmark must be within its allocs/op budget. The verdict tells a
// vacuous pass from a measured one.
func CheckVerdict(r *Report) (Verdict, error) {
	var errs []string
	capped := 0
	for i := range r.Benchmarks {
		b := &r.Benchmarks[i]
		cap, ok := AllocCaps[b.Name]
		if !ok {
			continue
		}
		capped++
		a, recorded := b.Allocs()
		if !recorded {
			errs = append(errs, fmt.Sprintf("%s: allocs_per_op not recorded (schema v%d reports always record it)",
				b.Name, SchemaVersion))
			continue
		}
		if a > cap {
			errs = append(errs, fmt.Sprintf("%s: %.2f allocs/op exceeds cap %.2f", b.Name, a, cap))
		}
	}
	v := Verdict{Reason: fmt.Sprintf("%d benchmarks checked against alloc caps", capped)}
	if capped == 0 {
		v = Verdict{Vacuous: true, Reason: "no alloc-capped benchmarks in this run"}
	}
	if len(errs) > 0 {
		return v, fmt.Errorf("bench check failed:\n  %s", strings.Join(errs, "\n  "))
	}
	return v, nil
}
