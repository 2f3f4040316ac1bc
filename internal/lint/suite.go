package lint

import "strings"

// DeterminismCritical lists the packages whose output must be bit-for-
// bit reproducible under a fixed seed: everything that decides or
// replays a schedule, and the CLI whose -json bytes must match the
// service's. The differential cache-on/off tests check this property
// end to end; detrange enforces it at the source level.
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
	"adhocgrid/cmd/slrhsim",
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

// A ScopedAnalyzer pairs an analyzer (mechanism) with the package-path
// policy deciding where it runs. Scope policy lives here, not in the
// analyzers, so fixtures and other modules can run the analyzers
// unscoped.
type ScopedAnalyzer struct {
	*Analyzer
	// AppliesTo reports whether the analyzer audits the package, given
	// its import path.
	AppliesTo func(pkgPath string) bool
}

// Suite returns the adhoclint analyzer set with its scope policy, in
// stable name order. This is the single registration point: the driver
// and the registration test both consume it.
func Suite() []ScopedAnalyzer {
	all := func(string) bool { return true }
	return []ScopedAnalyzer{
		{Ctxflow, all},
		{Detrange, inAny(DeterminismCritical)},
		{Errdrop, inAny(ErrorHygienePackages)},
		{Lockbalance, all},
		{Wallclock, all},
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
