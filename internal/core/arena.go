package core

import (
	"sync"

	"adhocgrid/internal/sched"
	"adhocgrid/internal/workload"
)

// Per-run arena (DESIGN.md §19). One SLRH run allocates a schedule
// state and a runner's pools and caches. None of that is inherent to a
// single run: every buffer reaches a natural high-water mark and can be
// reused verbatim by the next run over the same (or a same-shaped)
// instance.
// An Arena owns all of it, so in steady state RunArena touches the
// allocator only incidentally (allocs/op ≈ 0, gated by the perf suite
// and benchrunner -check).

// Arena owns the reusable storage of SLRH runs: the schedule state, the
// runner (candidate pool, plan cache, ready and eligible buffers) and
// the Result. Run is RunArena on a fresh arena; reusing one across calls
// yields byte-identical schedules (proven by the differential arena
// tests) without rebuilding any of it.
//
// Ownership contract: the *Result returned by RunArena (including
// Result.State) is valid only until the next RunArena call on the same
// arena. Callers that keep the schedule longer must copy what they need
// (the serve layer extracts its response before releasing the arena).
//
// An Arena serves one run at a time; use an ArenaPool to share arenas
// across concurrent request handlers.
type Arena struct {
	st  *sched.State
	run runner
	res Result
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// RunArena executes the SLRH heuristic on the instance, reusing a's
// storage: allocation-free in steady state. A nil arena means a fresh
// one. The run is deterministic: machines are visited in numeric order,
// pools are sorted by descending objective score with subtask id as the
// tie-break, and ties between versions prefer the primary.
func RunArena(inst *workload.Instance, cfg Config, a *Arena) (*Result, error) {
	if a == nil {
		a = NewArena()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if a.st == nil {
		a.st = sched.NewState(inst, cfg.Weights)
	} else {
		a.st.Reset(inst, cfg.Weights)
	}
	if err := a.run.run(a.st, cfg, &a.res); err != nil {
		return nil, err
	}
	return &a.res, nil
}

// ArenaPool is a free list of arenas for concurrent servers: Get returns
// a parked (or fresh) arena, Put parks it again after the run. Parked
// arenas keep their grown buffers, so a server in steady state admits
// scheduling requests without rebuilding runner state. Every Get must be
// paired with a Put on all paths (serve's TestExecuteArenaByteIdentical
// checks that ExecuteArena returns its arena).
type ArenaPool struct {
	mu   sync.Mutex
	free []*Arena
}

// NewArenaPool returns an empty pool.
func NewArenaPool() *ArenaPool { return &ArenaPool{} }

// Get pops a parked arena, or builds a fresh one.
func (p *ArenaPool) Get() *Arena {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		a := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return a
	}
	return NewArena()
}

// Put parks an arena for reuse. The caller must not touch the arena, or
// any Result it produced, afterwards. Put(nil) is a no-op.
func (p *ArenaPool) Put(a *Arena) {
	if a == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free = append(p.free, a)
}
