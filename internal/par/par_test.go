package par_test

import (
	"runtime"
	"sync/atomic"
	"testing"

	"adhocgrid/internal/par"
)

// TestMapCoversEveryIndex: every index is processed exactly once, at
// every worker count including the degenerate ones.
func TestMapCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 3, 16, 100} {
		const n = 57
		var hits [n]atomic.Int32
		par.Map(workers, n, func(k int) { hits[k].Add(1) })
		for k := range hits {
			if got := hits[k].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d processed %d times", workers, k, got)
			}
		}
	}
}

// TestMapZeroN: no tasks, no calls, no hang.
func TestMapZeroN(t *testing.T) {
	called := false
	par.Map(4, 0, func(int) { called = true })
	if called {
		t.Fatal("fn called for empty index space")
	}
}

// TestMapOutputSlots: concurrent tasks writing only their own slot
// produce the same result as sequential execution (the determinism
// contract).
func TestMapOutputSlots(t *testing.T) {
	const n = 1000
	seq := make([]int, n)
	par.Map(1, n, func(k int) { seq[k] = k * k })
	conc := make([]int, n)
	par.Map(8, n, func(k int) { conc[k] = k * k })
	for k := range seq {
		if seq[k] != conc[k] {
			t.Fatalf("slot %d: sequential %d vs concurrent %d", k, seq[k], conc[k])
		}
	}
}

func TestWorkers(t *testing.T) {
	if got := par.Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := par.Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS", got)
	}
	if got := par.Workers(-2); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-2) = %d, want GOMAXPROCS", got)
	}
}

func TestPerRun(t *testing.T) {
	if got := par.PerRun(8, 2); got != 4 {
		t.Errorf("PerRun(8,2) = %d, want 4", got)
	}
	if got := par.PerRun(2, 8); got != 1 {
		t.Errorf("PerRun(2,8) = %d, want 1 (floor)", got)
	}
	if got := par.PerRun(6, 0); got != 6 {
		t.Errorf("PerRun(6,0) = %d, want 6 (concurrent clamped to 1)", got)
	}
}
