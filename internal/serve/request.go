// Package serve is the slrhd scheduling service: an HTTP/JSON front end
// over the SLRH heuristics (internal/core) and the Max-Max baseline.
// It prices and maps scenarios on demand with bounded concurrency (the
// priority run pool in pool.go), explicit admission control (429 +
// Retry-After on queue overflow), a deterministic result cache, and a
// dependency-free Prometheus-text observability layer. See DESIGN.md §12.
//
// Determinism contract: a request fully determines its response bytes.
// Workloads are generated from the request seed (per-task seeded RNG),
// heuristic runs are single-goroutine and bit-reproducible (DESIGN.md
// §10–11), and the serialized result contains no wall-clock or
// process-local values — so a cache hit is provably identical to
// recomputation, which the tests assert byte-for-byte.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"adhocgrid/internal/core"
	"adhocgrid/internal/fault"
	"adhocgrid/internal/grid"
	"adhocgrid/internal/sched"
)

// LossEvent is one dynamic machine-loss injection, the structured form
// of slrhsim's machine@cycle spec.
type LossEvent struct {
	Machine int   `json:"machine"`
	At      int64 `json:"at"`
}

// Request is the body of POST /v1/map: the same knobs as cmd/slrhsim,
// one scenario run per request.
type Request struct {
	// N is the number of subtasks |T| (0 means the CLI default, 256).
	N int `json:"n"`
	// Case selects the grid configuration: "A", "B" or "C".
	Case string `json:"case"`
	// Heuristic is one of "slrh1", "slrh2", "slrh3" or "maxmax".
	Heuristic string `json:"heuristic"`
	// Seed drives all workload generation for the run.
	Seed uint64 `json:"seed"`
	// Alpha and Beta are the objective weights (gamma = 1-alpha-beta).
	Alpha float64 `json:"alpha"`
	Beta  float64 `json:"beta"`
	// DeltaT and Horizon override the SLRH timestep and receding horizon
	// in clock cycles (0 means the paper defaults; ignored for maxmax).
	DeltaT  int64 `json:"deltat,omitempty"`
	Horizon int64 `json:"horizon,omitempty"`
	// Adaptive enables the on-the-fly weight adaptation extension
	// (SLRH variants only).
	Adaptive bool `json:"adaptive,omitempty"`
	// EnergyScale multiplies every battery (0 means auto |T|/1024).
	EnergyScale float64 `json:"energy_scale,omitempty"`
	// Lose injects machine-loss events (SLRH variants only). Sugar for
	// the equivalent lose: items of Faults; both forms fold into one
	// canonical plan, so they share a cache key.
	Lose []LossEvent `json:"lose,omitempty"`
	// Faults is a full fault plan in the internal/fault DSL, e.g.
	// "lose:1@40000,fail:t217@52000,slow:links*0.5@[60000,90000],
	// rejoin:1@110000" (SLRH variants only). Canonicalization re-spells
	// it via fault.Plan.String, so any accepted spelling of the same plan
	// shares a cache key.
	Faults string `json:"faults,omitempty"`
	// Trace captures a per-timestep trace document, retrievable via
	// GET /v1/runs/{id}/trace using the response's X-Run-Id header.
	Trace bool `json:"trace,omitempty"`
	// Class names the service class steering admission ("interactive",
	// "batch" or "best-effort" by default; empty selects batch). It is
	// admission metadata only — it decides whether and when the run is
	// scheduled, never what it computes — so Canonical erases it: all
	// classes share one cache entry and byte-identical responses.
	Class string `json:"class,omitempty"`
}

// DefaultN is the subtask count used when a request leaves N zero,
// matching cmd/slrhsim's -n default.
const DefaultN = 256

// Canonical returns the request with defaults applied and enum fields
// normalized, so that equivalent requests share one cache key and the
// echoed request in the response shows the resolved values.
func (r Request) Canonical() Request {
	if r.N == 0 {
		r.N = DefaultN
	}
	r.Case = strings.ToUpper(strings.TrimSpace(r.Case))
	if r.Case == "" {
		r.Case = "A"
	}
	r.Heuristic = strings.ToLower(strings.TrimSpace(r.Heuristic))
	if r.Heuristic == "" {
		r.Heuristic = "slrh1"
	}
	if r.Heuristic == "maxmax" {
		// Max-Max is static: the clock parameters do not exist for it.
		// Zeroing them keeps equivalent requests on one cache entry.
		r.DeltaT, r.Horizon = 0, 0
	} else {
		if r.DeltaT == 0 {
			r.DeltaT = core.DefaultDeltaT
		}
		if r.Horizon == 0 {
			r.Horizon = core.DefaultHorizon
		}
	}
	if len(r.Lose) == 0 {
		r.Lose = nil
	}
	// The service class is admission metadata, resolved (and validated)
	// by the server before canonicalization; erasing it here keeps the
	// cache key and the echoed request — and therefore the response
	// bytes — identical across classes.
	r.Class = ""
	// Fold the Lose sugar and the Faults DSL into one canonically-spelled
	// plan, so every spelling of the same fault sequence shares a cache
	// key. A spec that does not parse is left verbatim for Validate to
	// reject with the parser's message.
	if pl, err := r.faultPlan(); err == nil {
		r.Lose = nil
		r.Faults = pl.String()
	}
	return r
}

// faultPlan parses the Faults DSL and merges the Lose sugar into it,
// returning the normalized combined plan.
func (r Request) faultPlan() (*fault.Plan, error) {
	pl, err := fault.ParsePlan(r.Faults)
	if err != nil {
		return nil, err
	}
	for _, e := range r.Lose {
		pl.Events = append(pl.Events, fault.Event{Kind: fault.Lose, At: e.At, Machine: e.Machine})
	}
	pl.Normalize()
	return pl, nil
}

// gridCase resolves the Case field of a canonical request.
func (r Request) gridCase() (grid.Case, error) {
	switch r.Case {
	case "A":
		return grid.CaseA, nil
	case "B":
		return grid.CaseB, nil
	case "C":
		return grid.CaseC, nil
	}
	return 0, fmt.Errorf("unknown case %q (want A, B or C)", r.Case)
}

// variant resolves the Heuristic field of a canonical request; ok is
// false for maxmax.
func (r Request) variant() (v core.Variant, ok bool, err error) {
	switch r.Heuristic {
	case "slrh1":
		return core.SLRH1, true, nil
	case "slrh2":
		return core.SLRH2, true, nil
	case "slrh3":
		return core.SLRH3, true, nil
	case "maxmax":
		return 0, false, nil
	}
	return 0, false, fmt.Errorf("unknown heuristic %q (want slrh1, slrh2, slrh3 or maxmax)", r.Heuristic)
}

// Validate checks a canonical request. maxN caps the accepted problem
// size (0 means no cap).
func (r Request) Validate(maxN int) error {
	if r.N <= 0 {
		return fmt.Errorf("n must be positive, got %d", r.N)
	}
	if maxN > 0 && r.N > maxN {
		return fmt.Errorf("n=%d exceeds the service cap of %d subtasks", r.N, maxN)
	}
	if _, err := r.gridCase(); err != nil {
		return err
	}
	_, isSLRH, err := r.variant()
	if err != nil {
		return err
	}
	if err := sched.NewWeights(r.Alpha, r.Beta).Validate(); err != nil {
		return err
	}
	if r.EnergyScale < 0 {
		return fmt.Errorf("energy_scale must be non-negative, got %v", r.EnergyScale)
	}
	if isSLRH {
		if r.DeltaT <= 0 {
			return fmt.Errorf("deltat must be positive, got %d", r.DeltaT)
		}
		if r.Horizon < 0 {
			return fmt.Errorf("horizon must be non-negative, got %d", r.Horizon)
		}
		for _, e := range r.Lose {
			if e.Machine < 0 || e.At < 0 {
				return fmt.Errorf("bad loss event %+v: machine and cycle must be non-negative", e)
			}
		}
		pl, err := r.faultPlan()
		if err != nil {
			return err
		}
		//lint:errdrop gridCase was validated just above, so it cannot fail here
		c, _ := r.gridCase()
		if err := pl.Validate(grid.ForCase(c).M(), r.N); err != nil {
			return err
		}
	} else if len(r.Lose) > 0 || r.Faults != "" || r.Adaptive {
		return fmt.Errorf("lose/faults/adaptive apply to the SLRH variants only")
	}
	return nil
}

// CanonicalKey returns the canonical request key of r — the exact key
// slrhd uses for its result cache and singleflight table, exported as
// the seam the fabric tier routes on. The contract, pinned by
// TestCanonicalKeyMatchesCachePath: same canonical form ⇒ same key ⇒
// same ring slot. Requests differing only in admission metadata (the
// "class" field) or in equivalent spellings of the same scenario
// (defaulted fields, case of enums, Lose sugar vs the Faults DSL)
// canonicalize identically and therefore share a key, a cache entry,
// and a home backend; requests differing in anything that changes the
// computed bytes never collide (SHA-256 of the canonical JSON form).
func CanonicalKey(r Request) string { return r.Key() }

// Key returns the canonical cache key: a hex SHA-256 of the canonical
// request's JSON encoding. encoding/json serializes a struct in field
// order with deterministic float formatting, so equal canonical
// requests — and only those — share a key.
func (r Request) Key() string {
	b, err := json.Marshal(r.Canonical())
	if err != nil {
		// A Request contains only marshalable fields; this is unreachable.
		panic(fmt.Sprintf("serve: marshal request: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
