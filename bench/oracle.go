package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"adhocgrid/internal/bound"
	"adhocgrid/internal/core"
	"adhocgrid/internal/par"
	"adhocgrid/internal/rng"
	"adhocgrid/internal/serve"
	"adhocgrid/internal/workload"
)

// expectation is the in-process answer to one canonical request.
type expectation struct {
	body    []byte // serve.EncodeResult bytes
	compact []byte // the same, compacted as batch lines embed it
	err     error
}

// oracle recomputes every kept success in-process with serve.ExecuteArena
// and serve.EncodeResult, and returns one message per mismatch: the
// received bytes must equal the recomputed ones (compacted for batch
// items), and the schedule's T100 must not exceed the §VI upper bound
// bound.UpperBound(inst).T100Bound. Identical requests are recomputed
// once.
func oracle(ks []kept, workers int) []string {
	sort.Slice(ks, func(a, b int) bool { return ks[a].index < ks[b].index })
	var keys []string
	var reqs []serve.Request
	seen := map[string]int{}
	for _, k := range ks {
		key := serve.CanonicalKey(k.req)
		if _, ok := seen[key]; !ok {
			seen[key] = len(keys)
			keys = append(keys, key)
			reqs = append(reqs, k.req)
		}
	}
	exp := make([]expectation, len(reqs))
	ap := core.NewArenaPool()
	par.Map(workers, len(reqs), func(i int) { exp[i] = expect(reqs[i], ap) })

	var bad []string
	for _, k := range ks {
		e := exp[seen[serve.CanonicalKey(k.req)]]
		switch {
		case e.err != nil:
			bad = append(bad, fmt.Sprintf("item %d: request %+v: %v", k.index, k.req, e.err))
		case !bytes.Equal(k.body, e.body) && !bytes.Equal(k.body, e.compact):
			bad = append(bad, fmt.Sprintf("item %d: request %+v: fleet bytes differ from in-process ExecuteArena+EncodeResult", k.index, k.req))
		}
	}
	return bad
}

// expect computes the in-process answer to req and checks it against
// the upper bound.
func expect(req serve.Request, ap *core.ArenaPool) expectation {
	out, err := serve.ExecuteArena(req, 0, 1, ap)
	if err != nil {
		return expectation{err: err}
	}
	var buf, compact bytes.Buffer
	if err := serve.EncodeResult(&buf, out.Result); err != nil {
		return expectation{err: err}
	}
	if err := json.Compact(&compact, bytes.TrimSpace(buf.Bytes())); err != nil {
		return expectation{err: err}
	}
	e := expectation{body: buf.Bytes(), compact: compact.Bytes()}
	c := req.Canonical()
	params := workload.DefaultParams(c.N)
	params.EnergyScale = c.EnergyScale
	scn, err := workload.Generate(params, rng.New(c.Seed))
	if err != nil {
		e.err = err
		return e
	}
	inst, err := scn.Instantiate(gridCaseOf(c.Case))
	if err != nil {
		e.err = err
		return e
	}
	if ub := bound.UpperBound(inst).T100Bound; out.Result.Metrics.T100 > ub {
		e.err = fmt.Errorf("t100 %d exceeds the upper bound %d", out.Result.Metrics.T100, ub)
	}
	return e
}
