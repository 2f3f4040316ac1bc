package lint

import (
	"go/ast"
	"go/types"
)

// Detrange flags the two source patterns that silently break bit-exact
// schedule reproducibility in determinism-critical packages:
//
//  1. `for … range` over a map — Go randomizes map iteration order per
//     run, so any value that escapes such a loop (appends, min/max,
//     first-wins writes, even log lines) varies between runs.
//  2. Pointer-keyed map types (e.g. map[*sched.Assignment]int64) — their
//     iteration order depends on allocation addresses as well as the
//     hash seed, and they invite pattern 1 the moment someone iterates;
//     dense index- or id-keyed storage is the deterministic equivalent.
//
// A site where order provably cannot escape is exempted with
// `//lint:sorted <one-line proof>`.
var Detrange = &Analyzer{
	Name:      "detrange",
	Directive: "sorted",
	Run:       runDetrange,
}

func runDetrange(pass *Pass) error {
	Inspect(pass.Files, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			tv, ok := pass.TypesInfo.Types[n.X]
			if !ok {
				return true
			}
			if m, ok := tv.Type.Underlying().(*types.Map); ok {
				pass.Reportf(n.Pos(),
					"range over %s iterates in nondeterministic order",
					types.TypeString(m, relativeTo(pass.Pkg)))
			}
		case *ast.MapType:
			tv, ok := pass.TypesInfo.Types[n.Key]
			if !ok {
				return true
			}
			if _, ok := tv.Type.Underlying().(*types.Pointer); ok {
				full, ok2 := pass.TypesInfo.Types[n]
				name := "pointer-keyed map"
				if ok2 {
					name = types.TypeString(full.Type, relativeTo(pass.Pkg))
				}
				pass.Reportf(n.Pos(),
					"%s is keyed by pointers: iteration and debug output depend on allocation addresses",
					name)
			}
		}
		return true
	})
	return nil
}

// relativeTo qualifies foreign types by package name (sched.Assignment)
// and local types bare, keeping messages readable.
func relativeTo(pkg *types.Package) types.Qualifier {
	return func(p *types.Package) string {
		if p == pkg {
			return ""
		}
		return p.Name()
	}
}
