package lint

import (
	"go/ast"
	"go/types"
)

// Wallclock keeps real time and ambient randomness out of scheduling
// decisions. The simulator models time as integer cycles and threads a
// seeded rng.Rand through every stochastic choice; a single time.Now or
// global math/rand call in a decision path makes schedules irreproducible
// and the paper's figures unrepeatable. The analyzer flags:
//
//   - time.Now, time.Since, time.Until (wall-clock reads), and the
//     wall-clock schedulers time.After/Tick/NewTicker/NewTimer/AfterFunc;
//   - package-level math/rand and math/rand/v2 functions, which draw
//     from a shared global source whose sequence depends on interleaving
//     (constructors like rand.New/NewSource that build an explicitly
//     seeded generator are allowed).
//
// Elapsed-time *reporting* — measuring how long a heuristic ran, never
// feeding the result back into a decision — is the sanctioned use and is
// annotated `//lint:wallclock <reason>` at each call site.
var Wallclock = &Analyzer{
	Name:      "wallclock",
	Directive: "wallclock",
	Run:       runWallclock,
}

var wallclockTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"After": true, "Tick": true, "NewTicker": true, "NewTimer": true, "AfterFunc": true,
}

// Seeded-generator constructors: fine, they take an explicit source.
var wallclockRandAllowed = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

func runWallclock(pass *Pass) error {
	Inspect(pass.Files, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		sig, _ := fn.Type().(*types.Signature)
		if sig == nil || sig.Recv() != nil { // methods are fine (e.g. (*rng.Rand).Float64)
			return true
		}
		switch fn.Pkg().Path() {
		case "time":
			if wallclockTimeFuncs[fn.Name()] {
				pass.Reportf(call.Pos(), "time.%s reads the wall clock; scheduling must use simulated cycles", fn.Name())
			}
		case "math/rand", "math/rand/v2":
			if !wallclockRandAllowed[fn.Name()] {
				pass.Reportf(call.Pos(), "%s.%s draws from the global rand source; use a seeded rng.Rand", fn.Pkg().Path(), fn.Name())
			}
		}
		return true
	})
	return nil
}

// calleeFunc resolves a call's target to a *types.Func, or nil for
// builtins, conversions, and indirect calls through variables.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[fun.Sel]
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	default:
		return nil
	}
	fn, _ := obj.(*types.Func)
	return fn
}
