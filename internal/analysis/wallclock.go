package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Wallclock forbids wall-clock time and the global math/rand state in
// library code.
//
// The simulator runs on a virtual timeline: node clocks, MAC grants
// and propagation delays are all virtual seconds derived from seeded
// state, which is what makes a run reproducible and worker-count
// invariant. time.Now / time.Sleep smuggle the host's wall clock into
// that world, and the global math/rand functions draw from a
// process-wide source that other code (or the runtime's random seed)
// perturbs. Only the cmd/ harnesses — which time their own runs and
// own the process — are allowlisted by path. Library code has no
// escape hatch: host cost is measured from outside it (cmd/aquaperf,
// Go benchmarks).
//
// Seeded sources remain first-class: rand.New(rand.NewSource(seed))
// and every method on *rand.Rand are fine, as are time.Duration
// values and arithmetic.
var Wallclock = &Analyzer{
	Name: "wallclock",
	Doc: "forbids time.Now/Sleep-style wall-clock access and global math/rand " +
		"in library code; cmd/ is allowlisted",
	Run: runWallclock,
}

// wallclockTimeFns are the package time functions that read or wait on
// the host clock.
var wallclockTimeFns = map[string]bool{
	"Now": true, "Sleep": true, "Since": true, "Until": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true,
}

// wallclockRandFns are the math/rand (and math/rand/v2) package-level
// functions backed by the shared global source. Constructors for
// seeded sources (New, NewSource, NewPCG, NewChaCha8, NewZipf) are
// deliberately absent.
var wallclockRandFns = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Int32": true, "Int32N": true,
	"Int64": true, "Int64N": true, "IntN": true, "N": true,
	"Uint": true, "Uint32": true, "Uint32N": true, "Uint64": true,
	"Uint64N": true, "UintN": true, "Float32": true, "Float64": true,
	"ExpFloat64": true, "NormFloat64": true, "Perm": true,
	"Shuffle": true, "Read": true, "Seed": true,
}

func runWallclock(pass *Pass) error {
	if strings.HasPrefix(pass.Path, "aquago/cmd/") {
		// The CLI harnesses time their own runs and own the process;
		// the virtual-clock rule is a library invariant.
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if !ok || obj.Pkg() == nil {
				return true
			}
			if sig, ok := obj.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // methods (e.g. *rand.Rand) are seeded state
			}
			var what string
			switch obj.Pkg().Path() {
			case "time":
				if wallclockTimeFns[obj.Name()] {
					what = "wall-clock time"
				}
			case "math/rand", "math/rand/v2":
				if wallclockRandFns[obj.Name()] {
					what = "the global math/rand source"
				}
			}
			if what == "" {
				return true
			}
			pass.Reportf(sel.Pos(),
				"%s.%s reads %s in library code; simulation state must come from "+
					"the virtual clock and seeded RNGs",
				obj.Pkg().Name(), obj.Name(), what)
			return true
		})
	}
	return nil
}
