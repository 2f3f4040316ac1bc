package lint

import "strings"

// DeterminismCritical lists the packages whose output must be bit-for-
// bit reproducible under a fixed seed: everything that decides or
// replays a schedule. The differential cache-on/off tests check this
// property end to end; detrange enforces it at the source level.
var DeterminismCritical = []string{
	"adhocgrid/internal/sched",
	"adhocgrid/internal/core",
	"adhocgrid/internal/sim",
	"adhocgrid/internal/exp",
	"adhocgrid/internal/fault",
	"adhocgrid/internal/maxmax",
	"adhocgrid/internal/workload",
	"adhocgrid/internal/serve",
	"adhocgrid/internal/par",
	"adhocgrid/internal/perf",
	"adhocgrid/internal/fabric",
	"adhocgrid/internal/chaos",
	"adhocgrid/cmd/slrhrouter",
}

// ScoringPackages hold objective evaluation and tie-breaking, where
// float equality silently decides winners.
var ScoringPackages = []string{
	"adhocgrid/internal/sched",
	"adhocgrid/internal/core",
	"adhocgrid/internal/opt",
}

// ErrorHygienePackages are the experiment drivers and commands covered
// by the Fig2 error-propagation rule.
var ErrorHygienePackages = []string{
	"adhocgrid/internal/exp",
	"adhocgrid/internal/fault",
	"adhocgrid/internal/serve",
	"adhocgrid/internal/perf",
	"adhocgrid/internal/fabric",
	"adhocgrid/internal/chaos",
	"adhocgrid/cmd/",
}

// ConcurrencyPackages carry the module's lock-based concurrency: the
// service's flight coalescing, admission accounting and priority run
// pool, the scheduler core's arena free-list, the experiment harness's
// in-flight optima dedup, the parallel-map primitive, and the fabric
// tier's health view and batch windows. lockbalance and pairwise prove
// their invariants path-by-path.
var ConcurrencyPackages = []string{
	"adhocgrid/internal/serve",
	"adhocgrid/internal/core",
	"adhocgrid/internal/exp",
	"adhocgrid/internal/par",
	"adhocgrid/internal/fabric",
	"adhocgrid/internal/chaos",
	"adhocgrid/cmd/slrhrouter",
}

// BytePurityPackages produce or store response bytes whose contract is
// byte-identity with recomputation: the service (EncodeResult, the
// result cache) and the CLI that must match it byte-for-byte.
var BytePurityPackages = []string{
	"adhocgrid/internal/serve",
	"adhocgrid/cmd/slrhsim",
	"adhocgrid/internal/fabric",
	"adhocgrid/internal/chaos",
	"adhocgrid/cmd/slrhrouter",
}

// A ScopedAnalyzer pairs an analyzer (mechanism) with the package-path
// policy deciding where it runs. Scope policy lives here, not in the
// analyzers, so fixtures and other modules can run the analyzers
// unscoped.
type ScopedAnalyzer struct {
	*Analyzer
	// Scope is the human-readable policy summary printed by
	// `adhoclint -list` (the README table mirrors it).
	Scope string
	// AppliesTo reports whether the analyzer audits the package. Paths
	// are canonical import paths; go vet test variants such as
	// "p [p.test]" must be normalized by the caller (see PackagePath).
	AppliesTo func(pkgPath string) bool
}

// Suite returns the adhoclint analyzer set with its scope policy, in
// stable name order. This is the single registration point: the driver,
// the vettool mode, and the registration test all consume it.
func Suite() []ScopedAnalyzer {
	all := func(string) bool { return true }
	return []ScopedAnalyzer{
		{Atomicmix, "all packages", all},
		{Bytepurity, "internal/serve, internal/fabric, internal/chaos, cmd/slrhsim, cmd/slrhrouter", inAny(BytePurityPackages)},
		{Ctxflow, "internal/serve, internal/fabric, internal/chaos, cmd/slrhrouter", inAny([]string{
			"adhocgrid/internal/serve",
			"adhocgrid/internal/fabric",
			"adhocgrid/internal/chaos",
			"adhocgrid/cmd/slrhrouter",
		})},
		{Detrange, "determinism-critical packages (incl. internal/fabric, internal/chaos, cmd/slrhrouter)", inAny(DeterminismCritical)},
		{Errdrop, "experiment drivers, the fabric tier and commands", inAny(ErrorHygienePackages)},
		{Floateq, "scoring packages", inAny(ScoringPackages)},
		{Lockbalance, "internal/serve, internal/core, internal/exp, internal/par, internal/fabric, internal/chaos, cmd/slrhrouter", inAny(ConcurrencyPackages)},
		{Pairwise, "internal/serve, internal/core, internal/exp, internal/par, internal/fabric, internal/chaos, cmd/slrhrouter", inAny(ConcurrencyPackages)},
		{Wallclock, "all packages", all},
	}
}

// inAny matches a package path against prefixes: an entry ending in "/"
// matches the whole subtree, otherwise the exact package.
func inAny(prefixes []string) func(string) bool {
	return func(path string) bool {
		for _, p := range prefixes {
			if strings.HasSuffix(p, "/") {
				if strings.HasPrefix(path, p) {
					return true
				}
			} else if path == p {
				return true
			}
		}
		return false
	}
}

// PackagePath normalizes a go list / go vet import path to its
// canonical form: "p [p.test]" (test variant) becomes "p", and the
// external test package "p_test" is left as-is (its files are test
// files, which the drivers skip anyway).
func PackagePath(importPath string) string {
	if i := strings.Index(importPath, " ["); i >= 0 {
		return importPath[:i]
	}
	return importPath
}
