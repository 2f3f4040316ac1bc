// Package par holds the dependency-free parallel-map primitive behind
// the experiment harness (internal/exp) and the weight search
// (internal/opt). It imports nothing from the module, so any package
// can fan out without an import cycle.
//
// Determinism contract: Map distributes a fixed index space over a
// bounded worker set, and every task writes only to its own output
// slot, so results are independent of scheduling order. Nothing in
// this package reads the clock or a global RNG.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Map applies fn to every index in [0, n) using at most `workers`
// concurrent goroutines (a non-positive count means sequential). fn
// must write only to its own index's output. It returns after every
// index has been processed, which also orders all of fn's writes
// before the caller's subsequent reads.
func Map(workers, n int, fn func(k int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for k := 0; k < n; k++ {
			fn(k)
		}
		return
	}
	// Atomic-counter dispatch: claiming indices with one atomic add keeps
	// the per-item overhead in the nanoseconds while still balancing
	// uneven task costs.
	var wg sync.WaitGroup
	var next atomic.Int64
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				fn(k)
			}
		}()
	}
	wg.Wait()
}

// Workers resolves a requested worker count: non-positive selects
// GOMAXPROCS, anything else is returned unchanged.
func Workers(requested int) int {
	if requested > 0 {
		return requested
	}
	return runtime.GOMAXPROCS(0)
}

// PerRun sizes the worker budget of one run when `concurrent` runs
// share the machine: total workers divided evenly, never below 1.
// Non-positive arguments select GOMAXPROCS for `total` and 1 for
// `concurrent`.
//
// Deprecated: ignored; kept only because bench/ compiles against it.
// Its result feeds only the ignored scoring fan-out parameters.
func PerRun(total, concurrent int) int {
	total = Workers(total)
	if concurrent < 1 {
		concurrent = 1
	}
	w := total / concurrent
	if w < 1 {
		return 1
	}
	return w
}
