package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Lockbalance proves mutex discipline on every path through every
// package (the service's flight map and run pool, the core's arena
// free-list, the harness's optima dedup, the fabric and chaos tiers
// are the lock holders today). Using the flow engine's path-sensitive
// interpreter it checks, per function:
//
//   - every sync.Mutex/RWMutex Lock (RLock) is released on every exit
//     path, either by a defer or by an explicit Unlock before each
//     return (defer-or-every-return discipline);
//   - no Unlock without a matching Lock on the path, and no re-Lock of
//     a mutex already held on every path (self-deadlock);
//   - loop bodies restore the hold state they entered with, so holds
//     cannot accumulate across iterations;
//   - sync.Cond.Wait appears only lexically inside a for condition
//     loop and only with a lock held (the canonical wait-loop shape);
//   - no potentially blocking operation — channel send/receive, select
//     without default, sync.WaitGroup.Wait, time.Sleep, or a call
//     through a function-typed value (an arbitrary callback) — runs
//     while a mutex is held, unless annotated.
//
// Functions with goto or too many live branch states are skipped
// rather than guessed at. Exempt a justified site with
// `//lint:lockbalance <reason>`.
var Lockbalance = &Analyzer{
	Name:      "lockbalance",
	Directive: "lockbalance",
	Run:       runLockbalance,
}

func runLockbalance(pass *Pass) error {
	hooks := &flowHooks{
		classify: lockClassify(pass),
		exit: func(exitPos token.Pos, key string, h held) {
			pass.Reportf(exitPos, "path exits with %s still locked (acquired at %s); unlock on every path or use defer",
				key, pass.Fset.Position(h.pos))
		},
		negative: func(pos token.Pos, key string) {
			pass.Reportf(pos, "unlock of %s without a matching lock on this path", key)
		},
		reacquire: func(pos token.Pos, key string) {
			pass.Reportf(pos, "lock of %s while already held on every path (self-deadlock for a non-reentrant mutex)", key)
		},
		loopImbalance: func(pos token.Pos, key string) {
			pass.Reportf(pos, "loop body changes the hold state of %s across iterations", key)
		},
		blocking: func(pos token.Pos, what, key string) {
			pass.Reportf(pos, "%s while holding %s can block the critical section indefinitely", what, key)
		},
		condWait: func(call *ast.CallExpr, inFor, anyHeld bool) {
			switch {
			case !inFor:
				pass.Reportf(call.Pos(), "sync.Cond.Wait outside a for condition loop: spurious wakeups break the invariant")
			case !anyHeld:
				pass.Reportf(call.Pos(), "sync.Cond.Wait without its lock held")
			}
		},
	}
	analyzeFlow(pass, hooks)
	return nil
}

// lockClassify maps sync.Mutex/RWMutex method calls to flow-engine
// keys. Read locks get a distinct key ("mu (RLock)") so read and write
// holds balance independently. Receiver rendering uses the source
// expression, so `s.mu` and a promoted embedded mutex `s` both key
// naturally.
func lockClassify(pass *Pass) func(*ast.CallExpr) (string, int) {
	return func(call *ast.CallExpr) (string, int) {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return "", 0
		}
		fn, _ := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
			return "", 0
		}
		sig, _ := fn.Type().(*types.Signature)
		if sig == nil || sig.Recv() == nil {
			return "", 0
		}
		recv := namedRecvName(sig.Recv().Type())
		if recv != "Mutex" && recv != "RWMutex" {
			return "", 0
		}
		base := exprText(sel.X)
		switch fn.Name() {
		case "Lock":
			return base, +1
		case "Unlock":
			return base, -1
		case "RLock":
			return base + " (RLock)", +1
		case "RUnlock":
			return base + " (RLock)", -1
		}
		return "", 0
	}
}
