package perf

import (
	"runtime"
	"time"
)

// maxWarmups bounds the settling loop in measure. Zero-alloc benchmarks
// reach a malloc-free op within a few runs (growth-on-demand buffers
// hit their high-water marks); benchmarks that allocate every op by
// design never settle and simply pay the full warm-up budget.
const maxWarmups = 8

// allocIters is how many ops the pinned allocation pass averages over.
// Allocation counts are deterministic once the op has settled, so a
// few iterations suffice; more would just slow the suite down.
const allocIters = 3

// measure runs op iters times after untimed warm-up calls. NsPerOp
// is the FASTEST iteration, not the mean: the minimum estimates the
// noise-free cost of the code and is stable at the small iteration
// counts CI smoke uses, where a mean is at the mercy of one GC pause or
// scheduler preemption. (Baseline and gate share the estimator, so the
// comparison is apples to apples.)
//
// Warm-up is excluded from the allocation window on purpose, and runs
// until an op completes without a single malloc (or maxWarmups is
// spent): the first few runs of an arena-backed benchmark grow
// free-lists and slabs to the workload's high-water mark, and counting
// that one-time growth would hide the steady-state property the alloc
// gate exists to pin — that the Nth run allocates nothing. These are
// the only two wall-clock reads in the harness; the values feed the
// report, never a scheduling decision.
func measure(iters int, op func()) (nsPerOp, allocsPerOp, bytesPerOp float64) {
	var before, after runtime.MemStats
	op() // warm up: pools, caches and page tables settle
	for w := 1; w < maxWarmups; w++ {
		runtime.ReadMemStats(&before)
		op()
		runtime.ReadMemStats(&after)
		if after.Mallocs == before.Mallocs {
			break // allocator settled: steady state reached
		}
	}
	best := int64(-1)
	for k := 0; k < iters; k++ {
		start := time.Now() //lint:wallclock benchmark timing; measurement output, never a scheduling input
		op()
		d := time.Since(start).Nanoseconds() //lint:wallclock closes the benchmark-timing pair above
		if best < 0 || d < best {
			best = d
		}
	}
	nsPerOp = float64(best)
	allocsPerOp, bytesPerOp = countAllocs(op)
	return nsPerOp, allocsPerOp, bytesPerOp
}

// countAllocs measures the op's steady-state allocation rate in a
// separate pass pinned to a single P, the same technique
// testing.AllocsPerRun uses: timing wants real GOMAXPROCS, but
// allocation counting wants determinism, and at full parallelism the
// runtime scheduler itself occasionally allocates around channel
// handoffs (sudog and M provisioning), smearing a handful of mallocs
// across whichever benchmark happens to be in its window. Pinning to
// one P removes that noise without changing what the op computes — the
// service benchmarks' goroutines still run, timeshared.
func countAllocs(op func()) (allocsPerOp, bytesPerOp float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < allocIters; k++ {
		op()
	}
	runtime.ReadMemStats(&after)
	allocsPerOp = float64(after.Mallocs-before.Mallocs) / allocIters
	bytesPerOp = float64(after.TotalAlloc-before.TotalAlloc) / allocIters
	return allocsPerOp, bytesPerOp
}
