package serve

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestPoolTrySubmitShedsOnFullQueue(t *testing.T) {
	p := newRunPool(1, 1, 1)
	defer p.Close()
	release := make(chan struct{})
	if !p.TrySubmitPriority(func() { <-release }, 0) {
		t.Fatal("first job must be accepted")
	}
	// Wait for the worker to pick it up, then fill the single queue slot.
	for p.Depth() > 0 {
		runtime.Gosched()
	}
	if !p.TrySubmitPriority(func() {}, 0) {
		t.Fatal("queue slot should be free")
	}
	if p.TrySubmitPriority(func() {}, 0) {
		t.Fatal("full queue must shed")
	}
	close(release)
}

func TestPoolCloseDrainsAcceptedJobs(t *testing.T) {
	p := newRunPool(2, 16, 1)
	var ran atomic.Int32
	accepted := 0
	for k := 0; k < 16; k++ {
		if p.TrySubmitPriority(func() { ran.Add(1) }, 0) {
			accepted++
		}
	}
	p.Close()
	if got := int(ran.Load()); got != accepted {
		t.Fatalf("Close dropped jobs: accepted %d, ran %d", accepted, got)
	}
	if p.TrySubmitPriority(func() {}, 0) {
		t.Fatal("closed pool must refuse jobs")
	}
	p.Close() // idempotent
}

// TestPriorityPoolServiceOrder queues jobs of three priorities behind a
// pinned worker and checks the drain order: every band-0 job before
// every band-1 job before every band-2 job, FIFO within a band.
func TestPriorityPoolServiceOrder(t *testing.T) {
	p := newRunPool(1, 9, 3)
	defer p.Close()
	release := make(chan struct{})
	for !p.TrySubmitPriority(func() { <-release }, 0) {
		runtime.Gosched()
	}
	for p.Depth() > 0 { // the pin is on the worker; the queue is ours
		runtime.Gosched()
	}

	var mu sync.Mutex
	var order []int
	// Submission order deliberately interleaves and inverts priority.
	for i, prio := range []int{2, 0, 1, 2, 0, 1, 2, 0, 1} {
		tag := prio*10 + i // band and submission index in one token
		if !p.TrySubmitPriority(func() {
			mu.Lock()
			order = append(order, tag)
			mu.Unlock()
		}, prio) {
			t.Fatalf("submission %d refused with free slots", i)
		}
	}
	close(release)
	p.Close() // drains everything queued

	want := []int{1, 4, 7, 12, 15, 18, 20, 23, 26} // band 0, 1, 2; FIFO inside
	if len(order) != len(want) {
		t.Fatalf("ran %d jobs, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("service order %v, want %v (priority bands must drain in order)", order, want)
		}
	}
}

// TestPriorityPoolClampsOutOfRangeBands routes out-of-range priorities
// to the nearest band instead of panicking.
func TestPriorityPoolClampsOutOfRangeBands(t *testing.T) {
	p := newRunPool(1, 4, 2)
	var ran atomic.Int32
	if !p.TrySubmitPriority(func() { ran.Add(1) }, -5) {
		t.Fatal("negative priority refused")
	}
	if !p.TrySubmitPriority(func() { ran.Add(1) }, 99) {
		t.Fatal("overlarge priority refused")
	}
	p.Close()
	if got := ran.Load(); got != 2 {
		t.Fatalf("ran %d clamped jobs, want 2", got)
	}
}

// TestPoolZeroCapacityHandoff: a zero-capacity pool still accepts work
// whenever a worker is idle (the unbuffered-channel handoff semantics
// the priority pool preserves) and sheds when all workers are busy.
func TestPoolZeroCapacityHandoff(t *testing.T) {
	p := newRunPool(1, 0, 1)
	defer p.Close()
	release := make(chan struct{})
	for !p.TrySubmitPriority(func() { <-release }, 0) {
		runtime.Gosched() // worker not parked yet
	}
	for p.Depth() > 0 {
		runtime.Gosched()
	}
	if p.TrySubmitPriority(func() {}, 0) {
		t.Fatal("zero-capacity pool with a busy worker must shed")
	}
	close(release)
}
