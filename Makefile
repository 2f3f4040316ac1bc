# Build, vet, lint and test the whole module. `make check` is the CI
# gate: the concurrent plan cache and the Optima in-flight dedup must
# stay race-clean, and the adhoclint invariant suite must report zero
# findings (determinism, error hygiene, lock and context discipline —
# DESIGN.md §11/§16).

GO ?= go

.PHONY: all build vet fmt-check lint test loc loc-diff race check bench bench-json bench-check bench-compare bench-vet fuzz

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails, listing the files, when gofmt would rewrite
# any Go file in the tree (the bench/ module and lint fixtures included).
fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "gofmt -l lists files that need formatting:"; echo "$$out"; exit 1; fi

# Static invariant suite (internal/lint via cmd/adhoclint): the five
# analyzers of DESIGN.md §11/§16 — determinism (detrange, wallclock),
# error hygiene (errdrop) and concurrency (lockbalance, ctxflow) — plus
# the bare-directive check. Exits non-zero on any finding.
lint:
	$(GO) run ./cmd/adhoclint ./...

test:
	$(GO) test ./...

# Non-test Go lines per package of the module in the current directory,
# one "lines import/path" row each.
LOC_ROWS = $(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./... | \
	while read -r pkg files; do \
		[ -n "$$files" ] || continue; \
		printf '%6d %s\n' "$$(cat $$files | wc -l)" "$$pkg"; \
	done

# Non-test Go lines per root-module package, plus the total: the code-
# size figure tracked next to the BENCH numbers (a change that removes
# lines at equal bytes and equal speed is a win).
loc:
	@$(LOC_ROWS) | awk '{ print; total += $$1 } END { printf "%6d total\n", total }'

# The same figure at REV and in the working tree, with the change per
# package: make loc-diff REV=<rev>. REV is exported from the local
# repository with git archive into a temporary directory (no network),
# so any commit-ish works, FETCH_HEAD included.
REV ?=
loc-diff:
	@[ -n "$(REV)" ] || { echo "usage: make loc-diff REV=<rev>" >&2; exit 2; }
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	git archive --format=tar "$(REV)" | tar -x -C "$$tmp" && \
	(cd "$$tmp" && $(LOC_ROWS)) > "$$tmp/loc.rev" && \
	$(LOC_ROWS) > "$$tmp/loc.tree" && \
	printf '%6s %6s %6s %s\n' rev tree change package && \
	awk 'FNR == NR { rev[$$2] = $$1; seen[$$2] = 1; next } { tree[$$2] = $$1; seen[$$2] = 1 } \
		END { for (p in seen) printf "%6d %6d %+6d %s\n", rev[p], tree[p], tree[p] - rev[p], p }' \
		"$$tmp/loc.rev" "$$tmp/loc.tree" | sort -k4 | \
	awk '{ print; r += $$1; t += $$2 } END { printf "%6d %6d %+6d total\n", r, t, t - r }'

race:
	$(GO) test -race ./...

# `race` covers internal/serve, internal/fabric and cmd/slrhsim, so the
# service's admission and drain paths, the router's failover, fault
# classes and batch degradation, and the faulted CLI/service parity run
# under the race detector on every check.
check: build vet fmt-check lint race

# Full testing.B benchmark sweep. -short skips the table/figure benches
# that regenerate whole experiments per iteration; drop it (BENCH_SHORT=)
# to run everything. See README.md "Benchmarking".
BENCH_SHORT ?= -short
bench:
	$(GO) test -run '^$$' -bench 'Benchmark.*' -benchtime 10x $(BENCH_SHORT) .

# Machine-readable perf baseline: run the perf suite and write a
# schema-versioned JSON report (ns/op, allocs/op, schedule metrics —
# no wall-clock timestamps).
# BENCH_FLAGS=-short for CI-smoke iteration counts.
BENCH_OUT ?= BENCH_19.json
bench-json:
	$(GO) run ./cmd/benchrunner -out $(BENCH_OUT) $(BENCH_FLAGS)

# Absolute-expectation gate: run the suite and enforce the allocation
# caps (the arena-backed SLRH benches must stay at zero allocs/op). A
# run with no capped benchmark prints SKIP instead of passing vacuously.
bench-check:
	$(GO) run ./cmd/benchrunner -out $(BENCH_OUT) $(BENCH_FLAGS) -check

# Regression gate: compare a fresh report against a committed baseline;
# exits non-zero when any benchmark's ns/op or allocs/op grew past
# TOLERANCE, when a baseline benchmark is missing from the fresh run, or
# when the baseline records allocs_per_op and the fresh run does not
# (absence fails loudly rather than comparing against zero).
# Full-iteration runs use the strict 10% default; CI smoke passes a
# wider TOLERANCE because shared runners add double-digit run-to-run
# noise that even a min-of-iters estimator can't remove.
# Usage: make bench-compare BASE=BENCH_19.json [TOLERANCE=0.25]
BASE ?= BENCH_19.json
TOLERANCE ?= 0.10
bench-compare:
	$(GO) run ./cmd/benchrunner -compare $(BENCH_OUT) -base $(BASE) -tolerance $(TOLERANCE)

# The fleet benchmark (bench/) is a module of its own, so `go build
# ./...` never compiles it. Vet, test and lint it against the current
# tree so a root API change that breaks the benchmark fails here, not
# when the benchmark runs; the lint also keeps every //lint: directive
# in bench/ owned by an analyzer of the suite.
bench-vet:
	cd bench && $(GO) vet ./... && $(GO) test ./... && $(GO) run adhocgrid/cmd/adhoclint ./...

# Fuzz smokes: the chunked timeline against the naive reference, the
# fault-DSL parser against its canonical re-spelling (parse/String round
# trip must reach a fixpoint), the plan-cached Max-Max against its
# per-triplet reference loop, and the SLRH runner against its plainly
# written ΔT-stepped reference loop (identical schedules, counters and
# observer sequences).
fuzz:
	$(GO) test -fuzz FuzzTimelineVsReference -fuzztime 15s ./internal/sched/
	$(GO) test -fuzz FuzzParsePlan -fuzztime 15s ./internal/fault/
	$(GO) test -run '^$$' -fuzz FuzzMaxMaxVsReference -fuzztime 15s ./internal/maxmax/
	$(GO) test -run '^$$' -fuzz FuzzRunVsReference -fuzztime 15s ./internal/core/
