package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Lockorder enforces the documented mutex ranking and keeps user
// callbacks out of critical sections.
//
// The network's locks form a strict order — txState.mu before
// Network.mu before Network.traceMu (see the txState and Network doc
// comments) — that until this analyzer lived only in comments.
// Lockorder checks two things intraprocedurally:
//
//   - ordering: acquiring a ranked mutex while already holding a
//     higher-ranked one (or re-acquiring a held mutex) is a
//     diagnostic. Such an inversion is never annotatable away: two
//     goroutines taking the same pair of locks in opposite orders is
//     a deadlock, full stop.
//
//   - callbacks: invoking a user callback — a function-typed struct
//     field taking arguments (OnDone, probes), a value loaded from
//     one, or a method on a Trace interface — while any lock is held
//     (including the implicit lock of a *Locked function) is a
//     diagnostic, because a callback that re-enters the network
//     (Enqueue, Send) recurses into the lock order from its leaf. A
//     deliberate, documented exception (the pipelined relay's
//     continuation, the serialized probe hooks) carries
//     //aqualint:callback-under-lock <why>.
var Lockorder = &Analyzer{
	Name: "lockorder",
	Doc: "enforces the tx.mu -> Network.mu -> traceMu lock order and " +
		"flags user callbacks invoked with a mutex held (annotate deliberate " +
		"ones //aqualint:callback-under-lock <why>)",
	Run: runLockorder,
}

func runLockorder(pass *Pass) error {
	scanFunctions(pass, lockHooks{
		acquire: func(mu heldLock, held []heldLock) {
			for _, h := range held {
				if h.key == mu.key {
					pass.Reportf(mu.pos, "%s locked while already held (acquired at %s): self-deadlock",
						mu.key, pass.Fset.Position(h.pos))
					return
				}
				if mu.rank >= 0 && h.rank >= 0 && mu.rank < h.rank {
					pass.Reportf(mu.pos,
						"%s acquired while holding %s inverts the documented lock order (%s); "+
							"a concurrent path taking them in order deadlocks against this one",
						mu.key, h.key, lockOrderLabel())
					return
				}
			}
		},
		call: func(c *ast.CallExpr, held []heldLock) {
			if len(held) == 0 {
				return
			}
			label, ok := callbackLabel(pass, c)
			if !ok {
				return
			}
			if pass.Annotated(c.Pos(), "callback-under-lock") {
				return
			}
			pass.Reportf(c.Pos(),
				"callback %s invoked while holding %s: a callback that re-enters the "+
					"network (Enqueue, Send) deadlocks; run it after unlocking, or annotate "+
					"//aqualint:callback-under-lock <why> if re-entry is documented away",
				label, heldLabel(held))
		},
	})
	return nil
}

// callbackLabel classifies a call as a user-callback invocation and
// names it for the diagnostic.
func callbackLabel(pass *Pass, c *ast.CallExpr) (string, bool) {
	fun := ast.Unparen(c.Fun)
	switch fun := fun.(type) {
	case *ast.SelectorExpr:
		s, ok := pass.Info.Selections[fun]
		if !ok {
			return "", false
		}
		switch s.Kind() {
		case types.FieldVal:
			if sig, ok := s.Type().Underlying().(*types.Signature); ok && sig.Params().Len() >= 1 {
				return "field " + fun.Sel.Name, true
			}
		case types.MethodVal:
			// A method on an interface named Trace is the stage-hook
			// surface; concrete methods are ordinary code.
			recv := s.Recv()
			if named, ok := deref(recv).(*types.Named); ok {
				if _, isIface := named.Underlying().(*types.Interface); isIface && named.Obj().Name() == "Trace" {
					return named.Obj().Name() + "." + fun.Sel.Name, true
				}
			}
		}
	case *ast.Ident:
		// A local loaded from a callback field (probe := cfg.probe).
		obj := pass.Info.Uses[fun]
		if obj == nil {
			return "", false
		}
		if scanned, ok := pass.callbackOrigin(obj); ok {
			return scanned, true
		}
	}
	return "", false
}

// callbackOrigin consults the current scanner's callback-variable
// table. The table lives on the scanner; the pass proxies it through
// a package-level hook set by scanFunctions for the duration of a
// function walk.
func (p *Pass) callbackOrigin(obj types.Object) (string, bool) {
	if currentScanner != nil && currentScanner.callbackVars[obj] {
		return "local " + obj.Name(), true
	}
	return "", false
}

// currentScanner exposes the active lockScanner to callbackLabel; the
// engine is single-goroutine per pass, so a package variable is safe.
var currentScanner *lockScanner

func lockOrderLabel() string {
	type kv struct {
		k string
		r int
	}
	var order []kv
	for k, r := range lockRanks { //aqualint:order-independent collected into a slice and sorted by rank on the next line
		order = append(order, kv{k, r})
	}
	sort.Slice(order, func(i, j int) bool { return order[i].r < order[j].r })
	names := make([]string, len(order))
	for i, e := range order {
		names[i] = e.k
	}
	return strings.Join(names, " -> ")
}

func heldLabel(held []heldLock) string {
	names := make([]string, 0, len(held))
	for _, h := range held {
		if h.key == callerHeldKey {
			names = append(names, "a caller-held lock (*Locked convention)")
			continue
		}
		names = append(names, h.key)
	}
	return strings.Join(names, ", ")
}
