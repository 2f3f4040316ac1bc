package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"

	"adhocgrid/internal/core"
	"adhocgrid/internal/fabric"
	"adhocgrid/internal/fault"
	"adhocgrid/internal/grid"
	"adhocgrid/internal/rng"
	"adhocgrid/internal/serve"
)

// Workload names, as BENCHMARK.json and -workload spell them.
const (
	paperMiss  = "paper_miss"
	smallMiss  = "small_miss"
	hitZipf    = "hit_zipf"
	batchSweep = "batch_sweep"
)

var workloadNames = []string{paperMiss, smallMiss, hitZipf, batchSweep}

// Workload shape constants (README.md "Workloads" gives the reasons).
const (
	catalogueSize = 512 // hit_zipf scenarios, all warmed during set-up
	zipfS         = 1.1 // hit_zipf popularity exponent
	poolSeeds     = 12  // batch_sweep's reused seed pool
	faultShare    = 5   // one SLRH request in faultShare carries a fault plan
)

// mixSlots is the heuristic mix of the single-request workloads as ten
// slots: slrh1 50%, slrh2 10%, slrh3 20%, maxmax 20%. A seed shuffles the
// slots and ops cycle through them, so every block of ten ops holds the
// mix exactly: seeds change the order of the work, not its amount.
var mixSlots = [10]string{"slrh1", "slrh1", "slrh1", "slrh1", "slrh1", "slrh2", "slrh3", "slrh3", "maxmax", "maxmax"}

var (
	gridCases  = []string{"A", "B", "C"}
	smallSizes = []int{64, 128, 256}
	classNames = []string{"interactive", "batch", "best-effort"}
)

// op is one closed-loop operation: one POST and the map requests it
// asks for.
type op struct {
	path  string          // "/v1/map" or "/v1/map/batch"
	body  []byte          // the bytes posted
	reqs  []serve.Request // the map requests answered, in response order
	entry int             // hit_zipf catalogue entry; -1 elsewhere
}

// entry is one hit_zipf catalogue scenario and the spellings clients
// send for it. Every spelling canonicalizes to req's key.
type entry struct {
	req       serve.Request
	spellings [][]byte
}

// stream is one workload: a deterministic op sequence generated from
// the run seed and the workload name, plus the warm-up ops set-up sends.
// at(i) depends only on (seed, workload, i), so two clients pulling
// indexes from one counter replay the same work on every commit.
type stream struct {
	name      string
	clients   int
	warm      []op
	catalogue []entry // hit_zipf only
	at        func(i int) op

	seed     uint64
	slots    [10]string
	caseOff  int
	sizeOff  int
	faultOff int
	pool     []uint64  // batch_sweep's reused seeds
	zipfCDF  []float64 // hit_zipf rank popularity, cumulative
	rankToEn []int     // hit_zipf rank → catalogue entry
}

// newStream builds a workload's stream for a seed.
func newStream(name string, seed uint64) (*stream, error) {
	return buildStream(name, seed, catalogueSize)
}

// buildStream is newStream with the hit_zipf catalogue size as a
// parameter, so tests can run the workload at a tiny scale.
func buildStream(name string, seed uint64, catSize int) (*stream, error) {
	s := &stream{name: name, seed: seed, slots: mixSlots}
	base := s.rand("base", 0)
	base.Shuffle(len(s.slots), func(i, j int) { s.slots[i], s.slots[j] = s.slots[j], s.slots[i] })
	s.caseOff, s.sizeOff, s.faultOff = base.Intn(3), base.Intn(3), base.Intn(faultShare)
	switch name {
	case paperMiss:
		s.clients = 1
		s.at = func(i int) op { return mapOp(s.single(i, 1024, true)) }
		for k, h := range []string{"slrh1", "slrh2", "slrh3", "maxmax"} {
			s.warm = append(s.warm, mapOp(s.warmReq(k, 1024, h)))
		}
	case smallMiss:
		s.clients = 2
		s.at = func(i int) op { return mapOp(s.single(i, s.size(i), false)) }
		for k := 0; k < 8; k++ {
			s.warm = append(s.warm, mapOp(s.warmReq(k, smallSizes[k%3], mixSlots[(k*3)%10])))
		}
	case hitZipf:
		s.clients = 2
		if err := s.buildCatalogue(catSize); err != nil {
			return nil, err
		}
		s.at = s.zipfOp
		for e := range s.catalogue {
			s.warm = append(s.warm, op{path: "/v1/map", body: s.catalogue[e].spellings[0],
				reqs: []serve.Request{s.catalogue[e].req}, entry: e})
		}
	case batchSweep:
		s.clients = 1
		pr := s.rand("pool", 0)
		for k := 0; k < poolSeeds; k++ {
			s.pool = append(s.pool, pr.Uint64())
		}
		s.at = s.batchOp
		wr := s.warmRand(0)
		s.warm = append(s.warm, sweepOp([]uint64{wr.Uint64(), wr.Uint64(), wr.Uint64(), wr.Uint64()}))
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	return s, nil
}

// warmSeed seeds the warm-up requests of paper_miss, small_miss and
// batch_sweep in place of the run seed. A handful of requests is too few
// to average out how costly the drawn scenarios are, so with the run seed
// setup_s would compare seeds; with one fixed set every run's set-up does
// the same work.
const warmSeed = 20040426

// rand returns the generator for one (label, index) of this stream.
func (s *stream) rand(label string, i int) *rng.Rand { return s.randFrom(s.seed, label, i) }

// warmRand returns the generator of warm-up request i.
func (s *stream) warmRand(i int) *rng.Rand { return s.randFrom(warmSeed, "warm", i) }

func (s *stream) randFrom(seed uint64, label string, i int) *rng.Rand {
	h := fnv.New64a()
	h.Write([]byte(s.name + "/" + label))
	return rng.New(rng.New(seed).Uint64() ^ h.Sum64() ^ uint64(i)*0x9e3779b97f4a7c15)
}

// caseOf and size rotate the grid case every op and |T| every third
// op, so nine consecutive ops cover every (case, size) pair.
func (s *stream) caseOf(i int) string { return gridCases[(i+s.caseOff)%3] }
func (s *stream) size(i int) int      { return smallSizes[(i/3+s.sizeOff)%3] }

// faulted reports whether slot i of the mix carries a fault plan: every
// faultShare-th SLRH request, counted across blocks, so the share is
// exact over any five blocks.
func (s *stream) faulted(i int) bool {
	pos := i % len(s.slots)
	if s.slots[pos] == "maxmax" {
		return false
	}
	j := 0
	for _, h := range s.slots[:pos] {
		if h != "maxmax" {
			j++
		}
	}
	ordinal := 8*(i/len(s.slots)) + j
	return ordinal%faultShare == s.faultOff
}

// single is request i of a single-request stream.
func (s *stream) single(i, n int, faults bool) serve.Request {
	r := s.rand("op", i)
	req := serve.Request{N: n, Case: s.caseOf(i), Heuristic: s.slots[i%len(s.slots)], Seed: r.Uint64(), Alpha: 0.5, Beta: 0.3}
	if faults && s.faulted(i) {
		req.Faults = faultPlan(r, req.Case, n).String()
	}
	return req
}

// warmReq is warm-up request k: a scenario outside the measured stream.
func (s *stream) warmReq(k, n int, h string) serve.Request {
	return serve.Request{N: n, Case: gridCases[k%3], Heuristic: h, Seed: s.warmRand(k).Uint64(), Alpha: 0.5, Beta: 0.3}
}

// mapOp wraps one map request as an op posted in its plain spelling.
func mapOp(req serve.Request) op {
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // a serve.Request always marshals
	}
	return op{path: "/v1/map", body: b, reqs: []serve.Request{req}, entry: -1}
}

// faultPlan draws a seeded lose/rejoin/fail/slow plan for one request.
// Anchors are shares of the deadline τ, so the plan lands inside the
// run at every |T|.
func faultPlan(r *rng.Rand, gridCase string, n int) *fault.Plan {
	tau := float64(grid.TauCycles(n))
	at := func(lo, hi float64) int64 { return int64((lo + (hi-lo)*r.Float64()) * tau) }
	m := grid.ForCase(gridCaseOf(gridCase)).M()
	p := &fault.Plan{}
	kind := r.Intn(4)
	if kind != 2 {
		k, lose := r.Intn(m), at(0.05, 0.25)
		p.Events = append(p.Events, fault.Event{Kind: fault.Lose, At: lose, Machine: k})
		if kind != 0 {
			p.Events = append(p.Events, fault.Event{Kind: fault.Rejoin, At: lose + at(0.05, 0.2), Machine: k})
		}
	}
	if kind >= 2 {
		p.Events = append(p.Events, fault.Event{Kind: fault.Fail, At: at(0.02, 0.4), Subtask: r.Intn(n)})
		start := at(0.1, 0.4)
		p.Windows = append(p.Windows, fault.Window{Start: start, End: start + at(0.05, 0.2),
			Factor: []float64{0.25, 0.5, 0.75}[r.Intn(3)]})
	}
	p.Normalize()
	return p
}

// gridCaseOf resolves a grid case letter.
func gridCaseOf(c string) grid.Case {
	switch c {
	case "B":
		return grid.CaseB
	case "C":
		return grid.CaseC
	}
	return grid.CaseA
}

// buildCatalogue draws hit_zipf's scenarios, their spellings and the
// Zipf popularity of their ranks.
func (s *stream) buildCatalogue(size int) error {
	s.catalogue = make([]entry, size)
	for e := range s.catalogue {
		r := s.rand("catalogue", e)
		req := serve.Request{N: s.size(e), Case: s.caseOf(e), Heuristic: s.slots[e%len(s.slots)], Seed: r.Uint64(), Alpha: 0.5, Beta: 0.3}
		if s.faulted(e) {
			req.Faults = faultPlan(r, req.Case, req.N).String()
		}
		sp, err := spellings(req, e)
		if err != nil {
			return err
		}
		s.catalogue[e] = entry{req: req, spellings: sp}
	}
	s.zipfCDF = make([]float64, size)
	total := 0.0
	for k := range s.zipfCDF {
		total += 1 / math.Pow(float64(k+1), zipfS)
		s.zipfCDF[k] = total
	}
	for k := range s.zipfCDF {
		s.zipfCDF[k] /= total
	}
	s.rankToEn = s.rand("ranks", 0).Perm(size)
	return nil
}

// zipfOp is hit_zipf op i: a Zipf-popular catalogue entry in a seeded
// choice of its spellings.
func (s *stream) zipfOp(i int) op {
	r := s.rand("op", i)
	rank := sort.SearchFloat64s(s.zipfCDF, r.Float64())
	if rank >= len(s.zipfCDF) {
		rank = len(s.zipfCDF) - 1
	}
	e := s.rankToEn[rank]
	en := &s.catalogue[e]
	return op{path: "/v1/map", body: en.spellings[r.Intn(len(en.spellings))], reqs: []serve.Request{en.req}, entry: e}
}

// batchOp is batch_sweep op i: a 48-item sweep over cases × {slrh1,
// maxmax} × |T| ∈ {64, 128} × four seeds, two from the reused pool and
// two fresh.
func (s *stream) batchOp(i int) op {
	r := s.rand("op", i)
	a := r.Intn(poolSeeds)
	b := (a + 1 + r.Intn(poolSeeds-1)) % poolSeeds
	return sweepOp([]uint64{s.pool[a], s.pool[b], r.Uint64(), r.Uint64()})
}

// sweepOp posts one batch sweep over the given seeds.
func sweepOp(seeds []uint64) op {
	sw := &fabric.SweepSpec{Heuristics: []string{"slrh1", "maxmax"}, Cases: gridCases, Ns: []int{64, 128}, Seeds: seeds, Alpha: 0.5, Beta: 0.3}
	b, err := json.Marshal(fabric.BatchRequest{Sweep: sw})
	if err != nil {
		panic(err) // a sweep always marshals
	}
	return op{path: "/v1/map/batch", body: b, reqs: sw.Expand(), entry: -1}
}

// sparse mirrors serve.Request with every field optional, so a
// spelling can leave defaults out.
type sparse struct {
	N         int               `json:"n,omitempty"`
	Case      string            `json:"case,omitempty"`
	Heuristic string            `json:"heuristic,omitempty"`
	Seed      uint64            `json:"seed,omitempty"`
	Alpha     float64           `json:"alpha,omitempty"`
	Beta      float64           `json:"beta,omitempty"`
	DeltaT    int64             `json:"deltat,omitempty"`
	Horizon   int64             `json:"horizon,omitempty"`
	Lose      []serve.LossEvent `json:"lose,omitempty"`
	Faults    string            `json:"faults,omitempty"`
	Class     string            `json:"class,omitempty"`
}

// spellings renders seven request bodies that all canonicalize to req:
// the canonical form, defaults omitted, enum case and whitespace, a
// service class, indented JSON, the lose sugar (or explicitly empty
// fault fields) with sorted keys, and defaults written out.
func spellings(req serve.Request, e int) ([][]byte, error) {
	c := req.Canonical()
	maxmax := c.Heuristic == "maxmax"
	minimal := sparse{N: c.N, Case: c.Case, Heuristic: c.Heuristic, Seed: c.Seed, Alpha: c.Alpha, Beta: c.Beta, Faults: c.Faults}
	if minimal.N == serve.DefaultN {
		minimal.N = 0
	}
	if minimal.Case == "A" {
		minimal.Case = ""
	}
	if minimal.Heuristic == "slrh1" {
		minimal.Heuristic = ""
	}
	shouty := sparse{N: c.N, Case: " " + strings.ToLower(c.Case) + " ", Heuristic: "\t" + strings.ToUpper(c.Heuristic) + " ",
		Seed: c.Seed, Alpha: c.Alpha, Beta: c.Beta, Faults: c.Faults}
	classed := c
	classed.Class = classNames[e%len(classNames)]

	sugar := map[string]any{"n": c.N, "case": c.Case, "heuristic": c.Heuristic, "seed": c.Seed,
		"alpha": c.Alpha, "beta": c.Beta, "faults": c.Faults, "lose": []serve.LossEvent{}}
	if !maxmax {
		pl, err := fault.ParsePlan(c.Faults)
		if err != nil {
			return nil, err
		}
		rest := &fault.Plan{Windows: pl.Windows}
		var lose []serve.LossEvent
		for _, ev := range pl.Events {
			if ev.Kind == fault.Lose {
				lose = append(lose, serve.LossEvent{Machine: ev.Machine, At: ev.At})
			} else {
				rest.Events = append(rest.Events, ev)
			}
		}
		if len(lose) > 0 {
			sugar["lose"], sugar["faults"] = lose, rest.String()
		}
	}

	explicit := map[string]any{"n": c.N, "case": c.Case, "heuristic": c.Heuristic, "seed": c.Seed,
		"alpha": c.Alpha, "beta": c.Beta, "energy_scale": 0, "adaptive": false, "class": ""}
	if maxmax {
		// Canonical erases Max-Max's clock parameters, whatever they say.
		explicit["deltat"], explicit["horizon"] = 25, 400
	} else {
		explicit["deltat"], explicit["horizon"] = core.DefaultDeltaT, core.DefaultHorizon
		explicit["faults"] = c.Faults
	}

	var out [][]byte
	for _, v := range []any{c, minimal, shouty, classed} {
		b, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	pretty, err := json.MarshalIndent(minimal, "  ", "\t")
	if err != nil {
		return nil, err
	}
	out = append(out, append(append([]byte("\n  "), pretty...), '\n'))
	for _, v := range []any{sugar, explicit} {
		b, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}
