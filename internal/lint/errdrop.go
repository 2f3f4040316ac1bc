package lint

import (
	"go/ast"
	"go/types"
)

// Errdrop locks in the Fig2 error-propagation rule: experiment drivers
// and commands must propagate or explicitly log every error, because a
// silently dropped error turns a partial sweep into a result that looks
// clean. The analyzer flags error-returning calls whose error is
// discarded:
//
//   - bare call statements (`f()` where f returns an error),
//   - blank assignments of an error result (`_ = f()`, `v, _ := f()`),
//   - `defer`/`go` statements whose call returns an error.
//
// Calls that cannot meaningfully fail are excluded: fmt.Print/Printf/
// Println (best-effort stdout), fmt.Fprint* to os.Stdout/os.Stderr or to
// a *bytes.Buffer / *strings.Builder, and methods on bytes.Buffer and
// strings.Builder (documented to never return a non-nil error).
// Deliberate discards carry `//lint:errdrop <reason>`.
var Errdrop = &Analyzer{
	Name:      "errdrop",
	Directive: "errdrop",
	Run:       runErrdrop,
}

func runErrdrop(pass *Pass) error {
	Inspect(pass.Files, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok && dropsError(pass, call) {
				pass.Reportf(n.Pos(), "error result of call is discarded")
			}
		case *ast.DeferStmt:
			if dropsError(pass, n.Call) {
				pass.Reportf(n.Pos(), "deferred call discards its error result")
			}
		case *ast.GoStmt:
			if dropsError(pass, n.Call) {
				pass.Reportf(n.Pos(), "go statement discards the call's error result")
			}
		case *ast.AssignStmt:
			checkBlankAssign(pass, n)
		}
		return true
	})
	return nil
}

// checkBlankAssign flags `_` receiving an error-typed value.
func checkBlankAssign(pass *Pass, n *ast.AssignStmt) {
	// a, b := f() — one call, tuple results.
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		call, ok := n.Rhs[0].(*ast.CallExpr)
		if !ok || excludedCall(pass, call) {
			return
		}
		tuple, ok := pass.TypesInfo.Types[call].Type.(*types.Tuple)
		if !ok {
			return
		}
		for i := 0; i < tuple.Len() && i < len(n.Lhs); i++ {
			if isBlank(n.Lhs[i]) && isErrorType(tuple.At(i).Type()) {
				pass.Reportf(n.Lhs[i].Pos(), "error result assigned to _")
			}
		}
		return
	}
	// Pairwise assignment: _ = f().
	for i, lhs := range n.Lhs {
		if !isBlank(lhs) || i >= len(n.Rhs) {
			continue
		}
		call, ok := n.Rhs[i].(*ast.CallExpr)
		if !ok || excludedCall(pass, call) {
			continue
		}
		if tv, ok := pass.TypesInfo.Types[call]; ok && isErrorType(tv.Type) {
			pass.Reportf(lhs.Pos(), "error result assigned to _")
		}
	}
}

// dropsError reports whether the call returns an error that the
// surrounding statement ignores, and is not on the exclusion list.
func dropsError(pass *Pass, call *ast.CallExpr) bool {
	if excludedCall(pass, call) {
		return false
	}
	tv, ok := pass.TypesInfo.Types[call]
	if !ok {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(tv.Type)
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool { return types.Identical(t, errorType) }

var errdropFmtStdout = map[string]bool{"Print": true, "Printf": true, "Println": true}
var errdropFmtWriter = map[string]bool{"Fprint": true, "Fprintf": true, "Fprintln": true}

// excludedCall reports calls whose dropped error is conventionally
// meaningless.
func excludedCall(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		// bytes.Buffer and strings.Builder methods document err == nil.
		return isInfallibleWriter(sig.Recv().Type())
	}
	if fn.Pkg().Path() == "fmt" {
		if errdropFmtStdout[fn.Name()] {
			return true
		}
		if errdropFmtWriter[fn.Name()] && len(call.Args) > 0 {
			return isStdStream(pass, call.Args[0]) || isInfallibleWriterExpr(pass, call.Args[0])
		}
	}
	return false
}

// isStdStream matches the os.Stdout / os.Stderr package variables.
func isStdStream(pass *Pass, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	v, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	return ok && v.Pkg() != nil && v.Pkg().Path() == "os" &&
		(v.Name() == "Stdout" || v.Name() == "Stderr")
}

func isInfallibleWriterExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && isInfallibleWriter(tv.Type)
}

func isInfallibleWriter(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	pkg, name := named.Obj().Pkg().Path(), named.Obj().Name()
	return (pkg == "bytes" && name == "Buffer") || (pkg == "strings" && name == "Builder")
}
