package serve

import "sync"

// runPool is the bounded worker pool that runs the service's map jobs
// (DESIGN.md §5): `workers` goroutines draining a job queue of capacity
// `queueCap`, split into priority bands. Admission is explicit —
// TrySubmitPriority fails fast when the queue is full — so a caller under
// pressure can return backpressure (HTTP 429) instead of blocking.
// Workers always take the oldest job of the highest-priority
// (lowest-numbered) non-empty band, so a latency-sensitive submission
// overtakes queued bulk work without preempting anything already
// running. Close runs every accepted job before returning.
type runPool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	bands  [][]func() // bands[p] is the FIFO queue of priority p
	queued int        // jobs accepted but not yet picked up, all bands
	cap    int        // queue capacity shared across bands
	idle   int        // workers parked in cond.Wait
	closed bool
	wg     sync.WaitGroup
}

// newRunPool starts a pool whose queue is split into `bands` priority
// levels, 0 the most urgent. Worker count and band count are clamped to
// at least 1, queue capacity to at least 0; the capacity is shared
// across bands (a full queue sheds every priority — priorities order
// service, they do not reserve slots).
func newRunPool(workers, queueCap, bands int) *runPool {
	if workers < 1 {
		workers = 1
	}
	if queueCap < 0 {
		queueCap = 0
	}
	if bands < 1 {
		bands = 1
	}
	p := &runPool{bands: make([][]func(), bands), cap: queueCap}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for g := 0; g < workers; g++ {
		go p.work()
	}
	return p
}

// work is one worker: take the best queued job, run it, repeat; exit
// once the pool is closed and the queue is drained.
func (p *runPool) work() {
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
func (p *runPool) pop() func() {
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

// TrySubmitPriority enqueues job in the given priority band (clamped to
// the pool's band range). Like the unbuffered-channel handoff it
// replaces, an idle worker counts as a free slot, so a zero-capacity
// pool still accepts work whenever a worker is parked. Returns false
// when no slot is free or the pool is closed.
func (p *runPool) TrySubmitPriority(job func(), priority int) bool {
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
func (p *runPool) Depth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queued
}

// Close stops admission, runs every job already accepted, and waits for
// the workers to exit. Safe to call more than once.
func (p *runPool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		p.cond.Broadcast()
	}
	p.mu.Unlock()
	p.wg.Wait()
}
