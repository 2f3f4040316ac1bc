package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// flow.go is the intra-procedural engine behind lockbalance: a small
// path-sensitive abstract interpreter over function bodies that tracks
// acquire/release balances (lock holds) through branches, loops,
// switches, selects, and defers.
//
// The abstraction is a multiset of held keys per execution path. The
// interpreter carries a bounded SET of such states (one per feasible
// branch combination), merges states with identical balances, and gives
// up silently on functions it cannot reason about (goto, or more than
// maxFlowStates distinct balances live at once) rather than guess.
// Reports are buffered and only flushed for functions analyzed to
// completion, so bailing out can never strand a half-true finding.

// maxFlowStates bounds the per-statement state set; beyond it the
// function is abandoned as too branchy for path-sensitive reasoning.
const maxFlowStates = 16

// held records one pending balance: how many times the key is held on
// this path and where it was most recently acquired.
type held struct {
	count int
	pos   token.Pos
}

// balState maps tracked keys to their pending balance on one path.
type balState map[string]held

func (s balState) clone() balState {
	c := make(balState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// sig is a canonical signature of the balance counts (positions are
// reporting metadata, not state), used to merge equivalent paths.
func (s balState) sig() string {
	keys := make([]string, 0, len(s))
	for k, v := range s {
		if v.count != 0 {
			keys = append(keys, fmt.Sprintf("%s=%d", k, v.count))
		}
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += k + ";"
	}
	return out
}

func cloneStates(sts []balState) []balState {
	out := make([]balState, len(sts))
	for i, s := range sts {
		out[i] = s.clone()
	}
	return out
}

// mergeStates dedupes states with identical balance signatures.
func mergeStates(sts []balState) []balState {
	seen := make(map[string]bool, len(sts))
	out := sts[:0]
	for _, s := range sts {
		sg := s.sig()
		if seen[sg] {
			continue
		}
		seen[sg] = true
		out = append(out, s)
	}
	return out
}

// flowHooks connects the engine to its analyzer: classify decides what
// is tracked, and each other hook reports one kind of finding. Every
// hook is mandatory.
type flowHooks struct {
	// classify maps a call to a tracked key and a delta: +1 acquire,
	// -1 release. key == "" means the call is not tracked.
	classify func(call *ast.CallExpr) (key string, delta int)

	// exit fires once per (key, acquire site) left pending on a path
	// that leaves the function, after deferred releases are applied.
	// exitPos is the return statement (or closing brace) of the path.
	exit func(exitPos token.Pos, key string, h held)

	// negative fires when a release finds no matching acquire on any
	// incoming path.
	negative func(pos token.Pos, key string)

	// reacquire fires when an acquire sees the key already held on
	// every incoming path (a self-deadlock for non-reentrant locks).
	reacquire func(pos token.Pos, key string)

	// loopImbalance fires when a loop body fails to restore the
	// balance it entered with, so holds accumulate per iteration.
	loopImbalance func(pos token.Pos, key string)

	// blocking fires for operations that can block indefinitely
	// (channel send/receive, select without default, WaitGroup.Wait,
	// time.Sleep, calls through function-typed values) reached while
	// some key is held.
	blocking func(pos token.Pos, what, key string)

	// condWait fires at every sync.Cond.Wait call site with whether
	// the call sits lexically inside a for loop and whether any
	// tracked key is held on some incoming path.
	condWait func(call *ast.CallExpr, inFor, anyHeld bool)
}

// flowFunc is the per-function interpreter state.
type flowFunc struct {
	pass     *Pass
	hooks    *flowHooks
	deferred map[string]int // releases scheduled by defer statements
	inFor    int            // lexical for-loop nesting depth
	noBlock  bool           // suppress blocking checks (select comms)
	gaveUp   bool           // goto or state explosion: discard reports
	reports  []func()       // buffered Reportf closures
}

// flowOut is the result of executing a statement (list): the states on
// normal fall-through plus those escaping via break or continue.
type flowOut struct {
	normal []balState
	brk    []balState
	cont   []balState
}

func normalOut(sts []balState) flowOut { return flowOut{normal: sts} }

// analyzeFlow runs the interpreter over every function body in the
// pass: declared functions, and function literals except those that are
// deferred calls (a deferred closure executes in its parent's balance
// context and is accounted for by the defer handling instead).
func analyzeFlow(pass *Pass, hooks *flowHooks) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			var lits []*ast.FuncLit
			deferLits := make(map[*ast.FuncLit]bool)
			ast.Inspect(fd, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.DeferStmt:
					if fl, ok := n.Call.Fun.(*ast.FuncLit); ok {
						deferLits[fl] = true
					}
				case *ast.FuncLit:
					lits = append(lits, n)
				}
				return true
			})
			runFlowBody(pass, hooks, fd.Body)
			for _, fl := range lits {
				if !deferLits[fl] {
					runFlowBody(pass, hooks, fl.Body)
				}
			}
		}
	}
}

// runFlowBody interprets one function body from an empty balance.
func runFlowBody(pass *Pass, hooks *flowHooks, body *ast.BlockStmt) {
	fa := &flowFunc{pass: pass, hooks: hooks, deferred: make(map[string]int)}
	out := fa.execStmts(body.List, []balState{{}})
	if len(out.normal) > 0 {
		fa.checkExit(body.Rbrace, out.normal)
	}
	if !fa.gaveUp {
		for _, r := range fa.reports {
			r()
		}
	}
}

func (fa *flowFunc) execStmts(list []ast.Stmt, sts []balState) flowOut {
	var out flowOut
	cur := sts
	for _, s := range list {
		if len(cur) == 0 || fa.gaveUp {
			break // unreachable (all prior paths diverged) or abandoned
		}
		r := fa.execStmt(s, cur)
		out.brk = append(out.brk, r.brk...)
		out.cont = append(out.cont, r.cont...)
		cur = mergeStates(r.normal)
		if len(cur) > maxFlowStates {
			fa.gaveUp = true
		}
	}
	out.normal = cur
	return out
}

func (fa *flowFunc) execStmt(s ast.Stmt, sts []balState) flowOut {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return fa.execStmts(s.List, sts)

	case *ast.ExprStmt:
		return normalOut(fa.evalExpr(s.X, sts))

	case *ast.SendStmt:
		sts = fa.evalExpr(s.Chan, sts)
		sts = fa.evalExpr(s.Value, sts)
		fa.blockingOp(s.Arrow, "channel send", sts)
		return normalOut(sts)

	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			sts = fa.evalExpr(r, sts)
		}
		for _, l := range s.Lhs {
			sts = fa.evalExpr(l, sts)
		}
		return normalOut(sts)

	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						sts = fa.evalExpr(v, sts)
					}
				}
			}
		}
		return normalOut(sts)

	case *ast.IncDecStmt:
		return normalOut(fa.evalExpr(s.X, sts))

	case *ast.ReturnStmt:
		for _, r := range s.Results {
			sts = fa.evalExpr(r, sts)
		}
		fa.checkExit(s.Pos(), sts)
		return flowOut{}

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			return flowOut{brk: sts}
		case token.CONTINUE:
			return flowOut{cont: sts}
		case token.GOTO:
			fa.gaveUp = true
			return flowOut{}
		}
		return normalOut(sts) // fallthrough: approximated as sequential

	case *ast.IfStmt:
		if s.Init != nil {
			sts = fa.execStmt(s.Init, sts).normal
		}
		sts = fa.evalExpr(s.Cond, sts)
		rThen := fa.execStmts(s.Body.List, cloneStates(sts))
		out := flowOut{brk: rThen.brk, cont: rThen.cont}
		out.normal = append(out.normal, rThen.normal...)
		if s.Else != nil {
			rElse := fa.execStmt(s.Else, cloneStates(sts))
			out.normal = append(out.normal, rElse.normal...)
			out.brk = append(out.brk, rElse.brk...)
			out.cont = append(out.cont, rElse.cont...)
		} else {
			out.normal = append(out.normal, sts...)
		}
		out.normal = mergeStates(out.normal)
		return out

	case *ast.ForStmt:
		if s.Init != nil {
			sts = fa.execStmt(s.Init, sts).normal
		}
		if s.Cond != nil {
			sts = fa.evalExpr(s.Cond, sts)
		}
		entry := mergeStates(cloneStates(sts))
		fa.inFor++
		r := fa.execStmts(s.Body.List, cloneStates(entry))
		iter := append(append([]balState(nil), r.normal...), r.cont...)
		if s.Post != nil && len(iter) > 0 {
			iter = fa.execStmt(s.Post, iter).normal
		}
		fa.inFor--
		fa.checkLoopInvariant(s.Pos(), entry, iter)
		var exit []balState
		if s.Cond != nil {
			exit = append(exit, entry...) // condition-false path
		}
		exit = append(exit, r.brk...)
		return normalOut(mergeStates(exit))

	case *ast.RangeStmt:
		sts = fa.evalExpr(s.X, sts)
		entry := mergeStates(cloneStates(sts))
		fa.inFor++
		r := fa.execStmts(s.Body.List, cloneStates(entry))
		fa.inFor--
		fa.checkLoopInvariant(s.Pos(), entry, append(append([]balState(nil), r.normal...), r.cont...))
		exit := append(cloneStates(entry), r.brk...)
		return normalOut(mergeStates(exit))

	case *ast.SwitchStmt:
		if s.Init != nil {
			sts = fa.execStmt(s.Init, sts).normal
		}
		if s.Tag != nil {
			sts = fa.evalExpr(s.Tag, sts)
		}
		return fa.execCases(s.Body, sts)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			sts = fa.execStmt(s.Init, sts).normal
		}
		sts = fa.execStmt(s.Assign, sts).normal
		return fa.execCases(s.Body, sts)

	case *ast.SelectStmt:
		return fa.execSelect(s, sts)

	case *ast.DeferStmt:
		fa.execDefer(s)
		return normalOut(sts)

	case *ast.GoStmt:
		// The spawned body runs on its own goroutine (analyzed as a
		// standalone function); only argument evaluation happens here.
		for _, arg := range s.Call.Args {
			sts = fa.evalExpr(arg, sts)
		}
		return normalOut(sts)

	case *ast.LabeledStmt:
		return fa.execStmt(s.Stmt, sts)

	case *ast.EmptyStmt:
		return normalOut(sts)
	}
	return normalOut(sts)
}

// execCases interprets a switch body. A break inside a case exits the
// switch, so case-level breaks become the switch's normal exits; a
// missing default adds a fall-past state.
func (fa *flowFunc) execCases(body *ast.BlockStmt, sts []balState) flowOut {
	out := flowOut{}
	hasDefault := false
	for _, cc := range body.List {
		c, ok := cc.(*ast.CaseClause)
		if !ok {
			continue
		}
		if c.List == nil {
			hasDefault = true
		}
		for _, e := range c.List {
			sts = fa.evalExpr(e, sts)
		}
		r := fa.execStmts(c.Body, cloneStates(sts))
		out.normal = append(out.normal, r.normal...)
		out.normal = append(out.normal, r.brk...) // break exits the switch
		out.cont = append(out.cont, r.cont...)
	}
	if !hasDefault {
		out.normal = append(out.normal, sts...)
	}
	out.normal = mergeStates(out.normal)
	return out
}

// execSelect interprets a select. Without a default clause the select
// itself blocks, which is checked before any clause runs.
func (fa *flowFunc) execSelect(s *ast.SelectStmt, sts []balState) flowOut {
	hasDefault := false
	for _, cc := range s.Body.List {
		if c, ok := cc.(*ast.CommClause); ok && c.Comm == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		fa.blockingOp(s.Pos(), "select without default", sts)
	}
	out := flowOut{}
	for _, cc := range s.Body.List {
		c, ok := cc.(*ast.CommClause)
		if !ok {
			continue
		}
		branch := cloneStates(sts)
		if c.Comm != nil {
			// The comm's channel operation is the select's own blocking
			// point (already checked above), not an independent one.
			fa.noBlock = true
			branch = fa.execStmt(c.Comm, branch).normal
			fa.noBlock = false
		}
		r := fa.execStmts(c.Body, branch)
		out.normal = append(out.normal, r.normal...)
		out.normal = append(out.normal, r.brk...) // break exits the select
		out.cont = append(out.cont, r.cont...)
	}
	out.normal = mergeStates(out.normal)
	return out
}

// execDefer folds a deferred call's net release effect into the
// function's deferred map. A deferred closure contributes the net
// balance of the tracked calls in its body (a balanced lock/unlock
// closure contributes nothing).
func (fa *flowFunc) execDefer(s *ast.DeferStmt) {
	if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
		net := make(map[string]int)
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			if inner, ok := n.(*ast.FuncLit); ok && inner != fl {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if key, delta := fa.hooks.classify(call); key != "" {
					net[key] -= delta // a release (-1) adds one deferred unlock
				}
			}
			return true
		})
		for k, v := range net {
			if v > 0 {
				fa.deferred[k] += v
			}
		}
		return
	}
	if key, delta := fa.hooks.classify(s.Call); key != "" && delta < 0 {
		fa.deferred[key]++
	}
}

// evalExpr walks an expression in evaluation order, applying tracked
// call deltas and blocking checks. Function literal bodies are skipped
// (they execute later, on their own path).
func (fa *flowFunc) evalExpr(e ast.Expr, sts []balState) []balState {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			sts = fa.evalCall(n, sts)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				fa.blockingOp(n.Pos(), "channel receive", sts)
			}
		}
		return true
	})
	return sts
}

func (fa *flowFunc) evalCall(call *ast.CallExpr, sts []balState) []balState {
	if key, delta := fa.hooks.classify(call); key != "" {
		return fa.applyDelta(call.Pos(), key, delta, sts)
	}
	// Not tracked: is it a blocking operation of interest?
	switch syncMethod(fa.pass, call) {
	case "Cond.Wait":
		fa.hooks.condWait(call, fa.inFor > 0, anyHeld(sts))
		return sts // Wait releases the lock while parked
	case "WaitGroup.Wait":
		fa.blockingOp(call.Pos(), "sync.WaitGroup.Wait", sts)
		return sts
	}
	if fn := calleeFunc(fa.pass, call); fn != nil && fn.Pkg() != nil &&
		fn.Pkg().Path() == "time" && fn.Name() == "Sleep" {
		fa.blockingOp(call.Pos(), "time.Sleep", sts)
		return sts
	}
	if name, ok := funcValueCall(fa.pass, call); ok {
		fa.blockingOp(call.Pos(), fmt.Sprintf("call through function value %s", name), sts)
	}
	return sts
}

func (fa *flowFunc) applyDelta(pos token.Pos, key string, delta int, sts []balState) []balState {
	if delta > 0 {
		if len(sts) > 0 {
			all := true
			for _, st := range sts {
				if st[key].count == 0 {
					all = false
					break
				}
			}
			if all {
				fa.reports = append(fa.reports, func() { fa.hooks.reacquire(pos, key) })
			}
		}
		for _, st := range sts {
			h := st[key]
			st[key] = held{count: h.count + 1, pos: pos}
		}
		return sts
	}
	// Release.
	acquired := false
	for _, st := range sts {
		if st[key].count > 0 {
			acquired = true
			break
		}
	}
	if !acquired && len(sts) > 0 {
		fa.reports = append(fa.reports, func() { fa.hooks.negative(pos, key) })
	}
	for _, st := range sts {
		if h := st[key]; h.count > 0 {
			st[key] = held{count: h.count - 1, pos: h.pos}
		}
	}
	return sts
}

// blockingOp reports a potentially blocking operation if any tracked
// key is held on some incoming path.
func (fa *flowFunc) blockingOp(pos token.Pos, what string, sts []balState) {
	if fa.noBlock {
		return
	}
	key, _, ok := firstHeld(sts)
	if !ok {
		return
	}
	fa.reports = append(fa.reports, func() { fa.hooks.blocking(pos, what, key) })
}

// firstHeld returns the lexicographically first key held in any state.
func firstHeld(sts []balState) (string, held, bool) {
	var keys []string
	byKey := make(map[string]held)
	for _, st := range sts {
		for k, h := range st {
			if h.count > 0 {
				if _, seen := byKey[k]; !seen {
					keys = append(keys, k)
					byKey[k] = h
				}
			}
		}
	}
	if len(keys) == 0 {
		return "", held{}, false
	}
	sort.Strings(keys)
	return keys[0], byKey[keys[0]], true
}

func anyHeld(sts []balState) bool {
	_, _, ok := firstHeld(sts)
	return ok
}

// checkExit applies deferred releases to each state and reports any
// pending balance, once per (key, acquire site).
func (fa *flowFunc) checkExit(exitPos token.Pos, sts []balState) {
	type pend struct {
		key string
		h   held
	}
	seen := make(map[string]bool)
	var pending []pend
	for _, st := range sts {
		for k, h := range st {
			n := h.count - fa.deferred[k]
			if n <= 0 {
				continue
			}
			id := fmt.Sprintf("%s@%d", k, h.pos)
			if !seen[id] {
				seen[id] = true
				pending = append(pending, pend{k, h})
			}
		}
	}
	sort.Slice(pending, func(i, j int) bool {
		if pending[i].h.pos != pending[j].h.pos {
			return pending[i].h.pos < pending[j].h.pos
		}
		return pending[i].key < pending[j].key
	})
	for _, p := range pending {
		p := p
		fa.reports = append(fa.reports, func() { fa.hooks.exit(exitPos, p.key, p.h) })
	}
}

// checkLoopInvariant verifies every post-iteration state matches some
// loop-entry state, so balances cannot accumulate across iterations.
func (fa *flowFunc) checkLoopInvariant(pos token.Pos, entry, iter []balState) {
	if len(entry) == 0 {
		return
	}
	entrySigs := make(map[string]bool, len(entry))
	for _, s := range entry {
		entrySigs[s.sig()] = true
	}
	for _, s := range mergeStates(iter) {
		if entrySigs[s.sig()] {
			continue
		}
		key := diffKey(entry[0], s)
		fa.reports = append(fa.reports, func() { fa.hooks.loopImbalance(pos, key) })
		return // one report per loop is enough
	}
}

// diffKey names a key whose balance differs between two states.
func diffKey(a, b balState) string {
	var keys []string
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if a[k].count != b[k].count {
			return k
		}
	}
	if len(keys) > 0 {
		return keys[0]
	}
	return "?"
}

// syncMethod identifies method calls on sync.Cond / sync.WaitGroup,
// returning "Cond.Wait" / "WaitGroup.Wait" or "".
func syncMethod(pass *Pass, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, _ := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" || fn.Name() != "Wait" {
		return ""
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return ""
	}
	if n := namedRecvName(sig.Recv().Type()); n == "Cond" || n == "WaitGroup" {
		return n + ".Wait"
	}
	return ""
}

// namedRecvName unwraps pointers and returns the named type's name.
func namedRecvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// funcValueCall reports whether the call goes through a function-typed
// variable or struct field (a closure or callback) rather than a
// declared function or method, returning a printable name.
func funcValueCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		v, ok := pass.TypesInfo.Uses[fun].(*types.Var)
		if !ok {
			return "", false
		}
		if _, ok := v.Type().Underlying().(*types.Signature); ok {
			return fun.Name, true
		}
	case *ast.SelectorExpr:
		selInfo, ok := pass.TypesInfo.Selections[fun]
		if !ok || selInfo.Kind() != types.FieldVal {
			return "", false
		}
		if _, ok := selInfo.Type().Underlying().(*types.Signature); ok {
			return exprText(fun), true
		}
	}
	return "", false
}

// exprText renders a lock/receiver expression for diagnostics: the
// ident/selector chain as written, with a fallback for anything else.
func exprText(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprText(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprText(e.X)
	case *ast.StarExpr:
		return exprText(e.X)
	case *ast.UnaryExpr:
		return exprText(e.X)
	case *ast.IndexExpr:
		return exprText(e.X) + "[...]"
	case *ast.CallExpr:
		return exprText(e.Fun) + "()"
	}
	return "<expr>"
}
