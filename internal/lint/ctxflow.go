package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Ctxflow statically flags the PR 6 disconnect-leak bug class in every
// package: request-path code that can outlive the client. It
// builds the package-local call graph rooted at HTTP handlers (any
// function or literal with a func(http.ResponseWriter, *http.Request)
// signature) and, in every reachable function — including closures
// they create, which run on pool workers on the request's behalf —
// requires:
//
//   - every blocking channel receive to sit in a select that also has
//     a context Done() case (or a default), so a vanished client can
//     always unblock the handler;
//   - every select without default to carry a Done() case;
//   - every goroutine spawned on the request path to select on Done()
//     somewhere in its body.
//
// Calls that cross packages are out of graph reach; the runtime
// leakcheck harness covers what this analyzer cannot see. Exempt a
// justified site with `//lint:ctxflow <reason>`.
var Ctxflow = &Analyzer{
	Name:      "ctxflow",
	Directive: "ctxflow",
	Run:       runCtxflow,
}

func runCtxflow(pass *Pass) error {
	// Collect declared functions and their bodies.
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}

	// Roots: handler-shaped declarations and literals. Sorted by name
	// so reachability attribution (and thus messages) is stable.
	var queue []*types.Func
	rootName := make(map[*types.Func]string)
	var rootLits []*ast.FuncLit
	for fn, fd := range decls {
		if isHandlerSig(fn.Type()) {
			queue = append(queue, fn)
			rootName[fn] = fd.Name.Name
		}
	}
	sort.Slice(queue, func(i, j int) bool { return rootName[queue[i]] < rootName[queue[j]] })
	Inspect(pass.Files, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			if tv, ok := pass.TypesInfo.Types[fl]; ok && isHandlerSig(tv.Type) {
				rootLits = append(rootLits, fl)
			}
		}
		return true
	})

	// BFS over same-package calls, remembering which handler reached
	// each function first (for the diagnostic message).
	reached := make(map[*types.Func]bool)
	var order []*types.Func
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		if reached[fn] {
			continue
		}
		reached[fn] = true
		order = append(order, fn)
		fd := decls[fn]
		if fd == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(pass, call)
			if callee == nil || callee.Pkg() != pass.Pkg {
				return true
			}
			if _, hasBody := decls[callee]; hasBody && !reached[callee] {
				if _, named := rootName[callee]; !named {
					rootName[callee] = rootName[fn]
				}
				queue = append(queue, callee)
			}
			return true
		})
	}

	for _, fn := range order {
		checkCtxBody(pass, decls[fn].Body, rootName[fn])
	}
	for _, fl := range rootLits {
		checkCtxBody(pass, fl.Body, "handler literal")
	}
	return nil
}

// checkCtxBody scans one handler-reachable body, descending into the
// closures it defines (they execute on the request's behalf).
func checkCtxBody(pass *Pass, body *ast.BlockStmt, root string) {
	// Receives that are select comm operands are judged at the select.
	commRecv := make(map[*ast.UnaryExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, cc := range sel.Body.List {
			c, ok := cc.(*ast.CommClause)
			if !ok || c.Comm == nil {
				continue
			}
			ast.Inspect(c.Comm, func(m ast.Node) bool {
				if ue, ok := m.(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
					commRecv[ue] = true
				}
				return true
			})
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if !spawnSelectsDone(pass, n) {
				pass.Reportf(n.Pos(), "goroutine spawned on the request path (reachable from %s) "+
					"does not select on a context Done(); a disconnected client leaks it", root)
			}
			return false // the spawned body was judged as a whole
		case *ast.SelectStmt:
			if selectHasDefault(n) || selectHasDone(pass, n) {
				return true
			}
			pass.Reportf(n.Pos(), "select reachable from %s has no context Done() case; "+
				"a disconnected client cannot unblock it", root)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !commRecv[n] {
				pass.Reportf(n.Pos(), "blocking receive reachable from %s without a select on "+
					"context Done(); a disconnected client cannot unblock it", root)
			}
		}
		return true
	})
}

// spawnSelectsDone reports whether a go statement's body contains a
// select with a Done() case (the cancellable-worker shape).
func spawnSelectsDone(pass *Pass, g *ast.GoStmt) bool {
	fl, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectStmt); ok && selectHasDone(pass, sel) {
			found = true
		}
		return !found
	})
	return found
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, cc := range s.Body.List {
		if c, ok := cc.(*ast.CommClause); ok && c.Comm == nil {
			return true
		}
	}
	return false
}

// selectHasDone reports whether any comm clause's channel expression
// involves a context Done() call (context.Context.Done, or any method
// named Done returning a receive-only channel — covers fixtures and
// wrapped contexts alike).
func selectHasDone(pass *Pass, s *ast.SelectStmt) bool {
	for _, cc := range s.Body.List {
		c, ok := cc.(*ast.CommClause)
		if !ok || c.Comm == nil {
			continue
		}
		found := false
		ast.Inspect(c.Comm, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Done" || len(call.Args) != 0 {
				return true
			}
			if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok {
				if fn.Pkg() != nil && fn.Pkg().Path() == "context" {
					found = true
					return false
				}
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Results().Len() == 1 {
					if ch, ok := sig.Results().At(0).Type().Underlying().(*types.Chan); ok && ch.Dir() == types.RecvOnly {
						found = true
						return false
					}
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// isHandlerSig reports whether t is func(http.ResponseWriter, *http.Request).
func isHandlerSig(t types.Type) bool {
	sig, ok := t.(*types.Signature)
	if !ok || sig.Params().Len() != 2 || sig.Results().Len() != 0 {
		return false
	}
	p0 := sig.Params().At(0).Type()
	p1 := sig.Params().At(1).Type()
	return isNetHTTPNamed(p0, "ResponseWriter") && isNetHTTPPtr(p1, "Request")
}

func isNetHTTPNamed(t types.Type, name string) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == name && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "net/http"
}

func isNetHTTPPtr(t types.Type, name string) bool {
	p, ok := t.(*types.Pointer)
	return ok && isNetHTTPNamed(p.Elem(), name)
}
