package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the shared intraprocedural lock-state engine behind
// the lockorder and chansend analyzers. It walks each function body
// in source order tracking which sync.Mutex / sync.RWMutex values are
// held, with just enough control-flow awareness for the codebase's
// dominant idioms:
//
//   - an early-return branch (if ... { mu.Unlock(); return err }) does
//     not leak its unlocks into the fall-through state;
//   - defer mu.Unlock() keeps the lock held to the end of the scan;
//   - loop / switch / select bodies are scanned for findings but do
//     not alter the fall-through state (bodies are assumed
//     lock-balanced, which `go vet -copylocks` style reviews keep
//     true in practice);
//   - a function literal starts from an empty held set (goroutines
//     and deferred closures do not inherit the caller's locks... and
//     if they re-acquire them the scan sees it).
//
// By convention, a function whose name ends in "Locked" runs with a
// caller-held lock; the engine models that as an implicit held lock
// of unknown rank, so the callback and channel-send rules apply
// inside such functions even though no Lock() call is visible.

// heldLock is one tracked acquisition.
type heldLock struct {
	// key names the mutex: "OwnerType.field" for a struct field
	// ("txState.mu", "Network.mu"), the variable name for a plain
	// local/package mutex, or callerHeldKey for the implicit lock of a
	// *Locked function.
	key string
	// rank is the mutex's position in the documented order, or -1 when
	// the mutex is not ranked.
	rank int
	pos  token.Pos
}

// callerHeldKey models the lock a *Locked function's caller holds.
const callerHeldKey = "«caller-held»"

// lockRanks is the documented aquago lock ordering: tx.mu before
// Network.mu before the trace serializer. Acquiring a lower rank while
// holding a higher one is a lockorder diagnostic. The table is keyed
// by "OwnerType.field" so the same discipline is checkable in analyzer
// fixtures that re-declare the shapes.
var lockRanks = map[string]int{
	"txState.mu":      10, // transmit queue state (txq.go)
	"Network.mu":      30, // virtual-time bookkeeping (network.go)
	"Network.traceMu": 40, // shared trace/probe serializer (leaf)
}

// lockHooks are the analyzer-specific reactions the engine invokes.
type lockHooks struct {
	// acquire fires when mu is about to be pushed onto held.
	acquire func(mu heldLock, held []heldLock)
	// send fires for every channel send; nonblocking marks a send that
	// provably cannot park (a clause of a select with a default).
	send func(s *ast.SendStmt, held []heldLock, nonblocking bool)
	// call fires for every call that is not a mutex operation.
	call func(c *ast.CallExpr, held []heldLock)
}

// scanFunctions runs the engine over every function declaration and
// function literal in the pass's non-test files.
func scanFunctions(pass *Pass, hooks lockHooks) {
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				s := &lockScanner{pass: pass, hooks: hooks, callbackVars: map[types.Object]bool{}}
				var held []heldLock
				if strings.HasSuffix(fd.Name.Name, "Locked") {
					held = append(held, heldLock{key: callerHeldKey, rank: -1, pos: fd.Pos()})
				}
				currentScanner = s
				s.block(fd.Body.List, held)
				currentScanner = nil
			}
		}
	}
}

type lockScanner struct {
	pass  *Pass
	hooks lockHooks
	// callbackVars marks local variables holding a callback loaded
	// from a struct field (probe := n.cfg.exchangeProbe), so a later
	// probe(...) call is recognized as a call into that field.
	callbackVars map[types.Object]bool
}

// block scans a statement list, threading the held-lock state through
// it, and returns the state at its end.
func (s *lockScanner) block(stmts []ast.Stmt, held []heldLock) []heldLock {
	for _, st := range stmts {
		held = s.stmt(st, held)
	}
	return held
}

func (s *lockScanner) stmt(st ast.Stmt, held []heldLock) []heldLock {
	switch st := st.(type) {
	case *ast.ExprStmt:
		return s.expr(st.X, held)
	case *ast.SendStmt:
		held = s.expr(st.Chan, held)
		held = s.expr(st.Value, held)
		s.emitSend(st, held, false)
		return held
	case *ast.AssignStmt:
		s.noteCallbackVars(st)
		for _, e := range st.Rhs {
			held = s.expr(e, held)
		}
		for _, e := range st.Lhs {
			held = s.expr(e, held)
		}
		return held
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						held = s.expr(e, held)
					}
				}
			}
		}
		return held
	case *ast.DeferStmt:
		// defer mu.Unlock() pins the lock to function exit: the lock
		// stays held for the rest of the scan, which is exactly the
		// state every later statement runs under. Other deferred calls
		// run at exit under unknowable state; only their argument
		// expressions and literal bodies are scanned.
		if key, op, ok := s.mutexOp(st.Call); ok && op == "Unlock" {
			_ = key // deliberately kept held
			return held
		}
		for _, a := range st.Call.Args {
			held = s.expr(a, held)
		}
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			s.block(lit.Body.List, nil)
		}
		return held
	case *ast.GoStmt:
		for _, a := range st.Call.Args {
			held = s.expr(a, held)
		}
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			s.block(lit.Body.List, nil)
		}
		return held
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			held = s.expr(e, held)
		}
		return held
	case *ast.IfStmt:
		if st.Init != nil {
			held = s.stmt(st.Init, held)
		}
		held = s.expr(st.Cond, held)
		bodyHeld := s.block(st.Body.List, cloneHeld(held))
		var after []heldLock
		switch {
		case terminates(st.Body):
			after = held
		default:
			after = bodyHeld
		}
		if st.Else != nil {
			elseHeld := s.stmt(st.Else, cloneHeld(held))
			switch {
			case elseTerminates(st.Else):
				// keep after
			case terminates(st.Body):
				after = elseHeld
			default:
				// Both fall through; keep the smaller held set so the
				// engine under-reports rather than false-positives.
				if len(elseHeld) < len(after) {
					after = elseHeld
				}
			}
		}
		return after
	case *ast.BlockStmt:
		return s.block(st.List, held)
	case *ast.ForStmt:
		if st.Init != nil {
			held = s.stmt(st.Init, held)
		}
		if st.Cond != nil {
			held = s.expr(st.Cond, held)
		}
		s.block(st.Body.List, cloneHeld(held))
		return held
	case *ast.RangeStmt:
		held = s.expr(st.X, held)
		s.block(st.Body.List, cloneHeld(held))
		return held
	case *ast.SwitchStmt:
		if st.Init != nil {
			held = s.stmt(st.Init, held)
		}
		if st.Tag != nil {
			held = s.expr(st.Tag, held)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.block(cc.Body, cloneHeld(held))
			}
		}
		return held
	case *ast.TypeSwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.block(cc.Body, cloneHeld(held))
			}
		}
		return held
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		for _, c := range st.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			if send, ok := cc.Comm.(*ast.SendStmt); ok {
				s.emitSend(send, held, hasDefault)
			}
			s.block(cc.Body, cloneHeld(held))
		}
		return held
	case *ast.LabeledStmt:
		return s.stmt(st.Stmt, held)
	default:
		return held
	}
}

// expr scans an expression tree, reacting to mutex operations, calls
// and function literals, and returns the updated held state.
func (s *lockScanner) expr(e ast.Expr, held []heldLock) []heldLock {
	switch e := e.(type) {
	case nil:
		return held
	case *ast.CallExpr:
		if key, op, ok := s.mutexOp(e); ok {
			switch op {
			case "Lock":
				mu := heldLock{key: key, rank: rankOf(key), pos: e.Pos()}
				if s.hooks.acquire != nil {
					s.hooks.acquire(mu, held)
				}
				return append(held, mu)
			case "Unlock":
				return popHeld(held, key)
			}
			return held
		}
		held = s.expr(e.Fun, held)
		for _, a := range e.Args {
			held = s.expr(a, held)
		}
		if s.hooks.call != nil {
			s.hooks.call(e, held)
		}
		return held
	case *ast.FuncLit:
		s.block(e.Body.List, nil)
		return held
	case *ast.ParenExpr:
		return s.expr(e.X, held)
	case *ast.SelectorExpr:
		return s.expr(e.X, held)
	case *ast.BinaryExpr:
		held = s.expr(e.X, held)
		return s.expr(e.Y, held)
	case *ast.UnaryExpr:
		return s.expr(e.X, held)
	case *ast.StarExpr:
		return s.expr(e.X, held)
	case *ast.IndexExpr:
		held = s.expr(e.X, held)
		return s.expr(e.Index, held)
	case *ast.SliceExpr:
		held = s.expr(e.X, held)
		for _, idx := range []ast.Expr{e.Low, e.High, e.Max} {
			held = s.expr(idx, held)
		}
		return held
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			held = s.expr(el, held)
		}
		return held
	case *ast.KeyValueExpr:
		return s.expr(e.Value, held)
	case *ast.TypeAssertExpr:
		return s.expr(e.X, held)
	default:
		return held
	}
}

func (s *lockScanner) emitSend(send *ast.SendStmt, held []heldLock, nonblocking bool) {
	if s.hooks.send != nil {
		s.hooks.send(send, held, nonblocking)
	}
}

// mutexOp reports whether call is <mutex>.Lock/Unlock/RLock/RUnlock
// (or TryLock) on a sync.Mutex / sync.RWMutex, with the mutex's key
// and the normalized operation ("Lock" or "Unlock").
func (s *lockScanner) mutexOp(call *ast.CallExpr) (key, op string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	var normalized string
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock":
		normalized = "Lock"
	case "Unlock", "RUnlock":
		normalized = "Unlock"
	default:
		return "", "", false
	}
	if !isSyncMutex(s.pass.typeOf(sel.X)) {
		return "", "", false
	}
	return s.mutexKey(sel.X), normalized, true
}

// mutexKey names a mutex expression: "OwnerType.field" when the
// mutex is a struct field, the identifier name otherwise.
func (s *lockScanner) mutexKey(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		owner := s.pass.typeOf(e.X)
		if owner != nil {
			if named, ok := deref(owner).(*types.Named); ok {
				return named.Obj().Name() + "." + e.Sel.Name
			}
		}
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	case *ast.ParenExpr:
		return s.mutexKey(e.X)
	case *ast.UnaryExpr:
		return s.mutexKey(e.X)
	default:
		return "mutex"
	}
}

// noteCallbackVars records `probe := x.y.someCallbackField` so a later
// probe(...) is attributed to the field it was loaded from.
func (s *lockScanner) noteCallbackVars(st *ast.AssignStmt) {
	if len(st.Lhs) != len(st.Rhs) {
		return
	}
	for i, lhs := range st.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue
		}
		obj := s.pass.Info.Defs[id]
		if obj == nil {
			obj = s.pass.Info.Uses[id]
		}
		if obj == nil {
			continue
		}
		if fieldCallback(s.pass, st.Rhs[i]) {
			s.callbackVars[obj] = true
		}
	}
}

// fieldCallback reports whether e selects a struct field of function
// type taking at least one parameter — the shape of a user callback
// (OnDone, probes, trace hooks), as opposed to a context.CancelFunc.
func fieldCallback(pass *Pass, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := pass.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return false
	}
	sig, ok := s.Type().Underlying().(*types.Signature)
	return ok && sig.Params().Len() >= 1
}

func rankOf(key string) int {
	if r, ok := lockRanks[key]; ok {
		return r
	}
	return -1
}

func cloneHeld(held []heldLock) []heldLock {
	return append([]heldLock(nil), held...)
}

func popHeld(held []heldLock, key string) []heldLock {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].key == key {
			return append(held[:i:i], held[i+1:]...)
		}
	}
	return held
}

// terminates reports whether a block's last statement transfers
// control out (return, branch, panic, os.Exit-style call is NOT
// detected — return/branch/panic cover the codebase's idioms).
func terminates(b *ast.BlockStmt) bool {
	if b == nil || len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

func elseTerminates(st ast.Stmt) bool {
	switch st := st.(type) {
	case *ast.BlockStmt:
		return terminates(st)
	case *ast.IfStmt:
		return terminates(st.Body) && st.Else != nil && elseTerminates(st.Else)
	}
	return false
}

// typeOf is Info.Types with pointer-safety.
func (p *Pass) typeOf(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func deref(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}

// isSyncMutex reports whether t (or *t) is sync.Mutex or sync.RWMutex.
func isSyncMutex(t types.Type) bool {
	named, ok := deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}
