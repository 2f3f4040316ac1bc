// Bounded worker pools (DESIGN.md §5). Two shapes share this file:
//
//   - ParMap, the sweep fan-out used by every experiment driver: a fixed
//     index space [0, n) distributed over a bounded set of workers, each
//     task writing only to its own output slot. Per-task seeded RNGs make
//     results independent of execution order.
//   - Pool, the long-running variant behind the slrhd scheduling service
//     (internal/serve): a fixed set of workers draining a bounded,
//     priority-banded job queue, with non-blocking admission (TrySubmit /
//     TrySubmitPriority) so callers can shed load instead of queueing
//     unboundedly, and a drain-on-close guarantee (Close runs every
//     accepted job before returning).
package exp

import (
	"sync"

	"adhocgrid/internal/par"
)

// ParMap applies fn to every index in [0, n) using at most `workers`
// concurrent goroutines (a non-positive count means sequential). fn must
// write only to its own index's output. The implementation lives in
// internal/par.
func ParMap(workers, n int, fn func(k int)) {
	par.Map(workers, n, fn)
}

// Pool is a bounded worker pool: `workers` goroutines draining a job
// queue of capacity `queueCap`, split into priority bands. Admission is
// explicit — TrySubmit fails fast when the queue is full — so a caller
// under pressure can return backpressure (HTTP 429) instead of
// blocking. Workers always take the oldest job of the highest-priority
// (lowest-numbered) non-empty band, so a latency-sensitive submission
// overtakes queued bulk work without preempting anything already
// running.
type Pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	bands  [][]func() // bands[p] is the FIFO queue of priority p
	queued int        // jobs accepted but not yet picked up, all bands
	cap    int        // queue capacity shared across bands
	idle   int        // workers parked in cond.Wait
	closed bool
	wg     sync.WaitGroup
}

// NewPool starts a single-band pool with the given worker count and
// queue capacity. Non-positive values are clamped to 1 worker / 0 queue
// slots (every submission then requires an idle worker).
func NewPool(workers, queueCap int) *Pool {
	return NewPriorityPool(workers, queueCap, 1)
}

// NewPriorityPool starts a pool whose queue is split into `bands`
// priority levels, 0 the most urgent. Worker count and band count are
// clamped to at least 1, queue capacity to at least 0; the capacity is
// shared across bands (a full queue sheds every priority — priorities
// order service, they do not reserve slots).
func NewPriorityPool(workers, queueCap, bands int) *Pool {
	if workers < 1 {
		workers = 1
	}
	if queueCap < 0 {
		queueCap = 0
	}
	if bands < 1 {
		bands = 1
	}
	p := &Pool{bands: make([][]func(), bands), cap: queueCap}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for g := 0; g < workers; g++ {
		go p.work()
	}
	return p
}

// work is one worker: take the best queued job, run it, repeat; exit
// once the pool is closed and the queue is drained.
func (p *Pool) work() {
	defer p.wg.Done()
	p.mu.Lock()
	for {
		if job := p.pop(); job != nil {
			p.mu.Unlock()
			job()
			p.mu.Lock()
			continue
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		p.idle++
		p.cond.Wait()
		p.idle--
	}
}

// pop removes the oldest job of the highest-priority non-empty band.
// Callers must hold p.mu.
func (p *Pool) pop() func() {
	for b := range p.bands {
		if q := p.bands[b]; len(q) > 0 {
			job := q[0]
			p.bands[b] = q[1:]
			p.queued--
			return job
		}
	}
	return nil
}

// TrySubmit enqueues job at the highest priority if a slot is free. It
// returns false — without blocking — when the queue is full or the pool
// is closed.
func (p *Pool) TrySubmit(job func()) bool {
	return p.TrySubmitPriority(job, 0)
}

// TrySubmitPriority enqueues job in the given priority band (clamped to
// the pool's band range). Like the unbuffered-channel handoff it
// replaces, an idle worker counts as a free slot, so a zero-capacity
// pool still accepts work whenever a worker is parked. Returns false
// when no slot is free or the pool is closed.
func (p *Pool) TrySubmitPriority(job func(), priority int) bool {
	if priority < 0 {
		priority = 0
	}
	if priority >= len(p.bands) {
		priority = len(p.bands) - 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || p.queued >= p.cap+p.idle {
		return false
	}
	p.bands[priority] = append(p.bands[priority], job)
	p.queued++
	p.cond.Signal()
	return true
}

// Depth returns the number of jobs accepted but not yet picked up by a
// worker, across all priority bands.
func (p *Pool) Depth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queued
}

// Close stops admission, runs every job already accepted, and waits for
// the workers to exit. Safe to call more than once.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		p.cond.Broadcast()
	}
	p.mu.Unlock()
	p.wg.Wait()
}
