# Build, vet, lint and test the whole module. `make check` is the CI
# gate: the concurrent plan cache and the Optima in-flight dedup must
# stay race-clean, and the adhoclint invariant suite must report zero
# findings (determinism, float discipline, error hygiene — DESIGN.md §11).

GO ?= go

.PHONY: all build vet fmt-check lint lint-fix-hints lint-json lint-vet test loc loc-diff race check bench bench-json bench-check bench-compare bench-vet fuzz serve-smoke fault-smoke admission-smoke fabric-smoke chaos-smoke

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

# Static invariant suite (internal/lint via cmd/adhoclint): the nine
# analyzers of DESIGN.md §11/§16 — determinism (detrange, wallclock,
# floateq), error hygiene (errdrop), concurrency (lockbalance, pairwise,
# atomicmix, ctxflow) and byte purity (bytepurity) — plus the bare-
# directive check. Exits non-zero on any finding.
lint:
	$(GO) run ./cmd/adhoclint ./...

# Same gate, but each finding is followed by a one-line remediation hint.
lint-fix-hints:
	$(GO) run ./cmd/adhoclint -hints ./...

# Same gate emitting machine-readable findings (file/line/col/analyzer/
# message/hint), for editor integrations and CI annotation tooling.
lint-json:
	$(GO) run ./cmd/adhoclint -json ./...

# The same suite through `go vet -vettool`: proves the unified driver
# speaks cmd/vet's unitchecker protocol, and gives vet's per-package
# caching for incremental runs.
lint-vet:
	@mkdir -p bin
	$(GO) build -o bin/adhoclint ./cmd/adhoclint
	$(GO) vet -vettool=$(CURDIR)/bin/adhoclint ./...

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

# `race` covers internal/serve, so the service's admission control and
# drain paths are exercised under the race detector on every check.
check: build vet fmt-check lint race

# End-to-end smoke of the slrhd service: boots on a loopback port,
# exercises map (miss + byte-identical hit), trace, health, readiness
# and metrics, then drains. No external tools (curl etc.) needed.
serve-smoke:
	$(GO) run ./cmd/slrhd -smoke

# End-to-end smoke of the cost-predictive admission path: warms the
# latency model with real runs, checks the capacity planner's answer,
# provokes a cost shed (429 + Retry-After) via an unmeetable class
# target, rejects an unknown class, and reconciles the shed/calibration
# metrics. See README.md "Service classes".
admission-smoke:
	$(GO) run ./cmd/slrhd -admission-smoke

# End-to-end smoke of the fabric tier: a slrhrouter over two in-process
# slrhd backends. Asserts byte-identical routed vs direct responses
# (the cross-fleet affinity contract), byte-identical failover after a
# backend dies, deterministic batch scatter/gather order, fleet
# capacity aggregation and the router metrics. See README.md
# "Running a fleet".
fabric-smoke:
	$(GO) run ./cmd/slrhrouter -smoke

# Chaos smoke of the hardened fabric, under the race detector: three
# in-process slrhd backends behind a deterministic fault-injecting
# transport (internal/chaos). Every fault class — drop, delay,
# blackhole, 5xx burst, slow body, connection reset — must yield either
# the byte-identical correct answer or a well-formed 503/429 with
# Retry-After; batch items degrade per-item; membership churn under
# live traffic stays invisible; zero goroutines leak. See README.md
# "Surviving failures".
chaos-smoke:
	$(GO) run -race ./cmd/slrhrouter -chaos-smoke

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
# ./...` never compiles it. Vet and test it against the current tree so
# a root API change that breaks the benchmark fails here, not when the
# benchmark runs.
bench-vet:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Determinism smoke for the fault engine: one canned churn plan (loss,
# transient failure, link degradation, rejoin) run twice through
# `slrhsim -json`; the two documents must be byte-identical.
FAULT_SMOKE_PLAN = fail:t30@4000,lose:1@8000,slow:links*0.5@[9000,40000],rejoin:1@12000
fault-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/slrhsim -n 96 -seed 11 -json -faults '$(FAULT_SMOKE_PLAN)' > "$$tmp/a.json" && \
	$(GO) run ./cmd/slrhsim -n 96 -seed 11 -json -faults '$(FAULT_SMOKE_PLAN)' > "$$tmp/b.json" && \
	cmp "$$tmp/a.json" "$$tmp/b.json" && \
	grep -q '"verify_ok": true' "$$tmp/a.json" && \
	echo "fault-smoke: two faulted runs byte-identical and verified"

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
