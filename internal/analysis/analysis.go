// Package analysis is aquago's static-analysis suite: a small,
// dependency-free reimplementation of the golang.org/x/tools
// go/analysis vocabulary (Analyzer, Pass, diagnostics) plus the four
// aqualint analyzers that turn the simulator's determinism and
// concurrency invariants into compile-time checks:
//
//   - mapiter: no raw map iteration in the deterministic core
//   - wallclock: no wall-clock time or global math/rand in library code
//   - lockorder: the documented mutex ranking, and no user callbacks
//     invoked with a lock held
//   - chansend: no channel sends while holding a network lock
//
// The framework is self-contained on the standard library's go/ast +
// go/types so the suite builds offline (golang.org/x/tools is not a
// dependency of this module); cmd/aqualint is the driver, runnable
// standalone (`go run ./cmd/aqualint ./...`) or as a `go vet
// -vettool`.
//
// # Annotations
//
// Every analyzer but wallclock honors a justification annotation on
// the flagged line or the line directly above it:
//
//	//aqualint:<directive> <why>
//
// The directives are order-independent (mapiter), callback-under-lock
// (lockorder) and chansend-ok (chansend); library code cannot excuse a
// wall-clock read. The justification text is mandatory: an annotation
// without one is itself a diagnostic, so the "why" lives next to the
// code it excuses.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check. The API mirrors
// golang.org/x/tools/go/analysis so the suite could migrate onto it
// verbatim if the dependency ever lands.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and annotations.
	Name string
	// Doc is the one-paragraph description `aqualint -help` prints.
	Doc string
	// Run executes the check over one package.
	Run func(*Pass) error
}

// All lists the aqualint analyzers in reporting order.
var All = []*Analyzer{Mapiter, Wallclock, Lockorder, Chansend}

// A Diagnostic is one reported finding, positioned and attributed.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	// Path is the package's import path. Test-binary variants ("pkg
	// [pkg.test]") are normalized to the plain path by the loaders.
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	diags *[]Diagnostic
	notes map[*ast.File]map[int]annotation
}

// annotation is one parsed //aqualint: comment.
type annotation struct {
	directive     string
	justification string
	pos           token.Pos
}

const annotationPrefix = "//aqualint:"

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether f came from a _test.go file. The
// analyzers enforce invariants of the shipped simulator, not of its
// tests (which own their determinism through goldens), so every check
// skips test files.
func (p *Pass) IsTestFile(f *ast.File) bool {
	name := p.Fset.Position(f.Package).Filename
	return strings.HasSuffix(name, "_test.go")
}

// Annotated reports whether pos carries the given aqualint directive
// on its own line or the line directly above. An annotation with an
// empty justification counts as present but draws its own diagnostic,
// so silencing a finding always costs a written reason.
func (p *Pass) Annotated(pos token.Pos, directive string) bool {
	f := p.fileOf(pos)
	if f == nil {
		return false
	}
	if p.notes == nil {
		p.notes = make(map[*ast.File]map[int]annotation)
	}
	byLine, ok := p.notes[f]
	if !ok {
		byLine = parseAnnotations(p.Fset, f)
		p.notes[f] = byLine
	}
	line := p.Fset.Position(pos).Line
	for _, l := range [2]int{line, line - 1} {
		a, ok := byLine[l]
		if !ok || a.directive != directive {
			continue
		}
		if a.justification == "" {
			p.Reportf(a.pos, "aqualint:%s annotation needs a justification — say why the invariant holds here", directive)
		}
		return true
	}
	return false
}

// parseAnnotations indexes a file's //aqualint: comments by the line
// they annotate: the comment's own line, so an annotation suppresses
// findings on that line and the one below it.
func parseAnnotations(fset *token.FileSet, f *ast.File) map[int]annotation {
	byLine := make(map[int]annotation)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, annotationPrefix)
			if !ok {
				continue
			}
			directive, why, _ := strings.Cut(rest, " ")
			byLine[fset.Position(c.Pos()).Line] = annotation{
				directive:     directive,
				justification: strings.TrimSpace(why),
				pos:           c.Pos(),
			}
		}
	}
	return byLine
}

func (p *Pass) fileOf(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// RunAnalyzers applies every analyzer to every package and returns
// the findings sorted by position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		d, err := RunPackage(pkg, analyzers)
		if err != nil {
			return nil, err
		}
		diags = append(diags, d...)
	}
	sortDiagnostics(diags)
	return diags, nil
}

// RunPackage applies the analyzers to one loaded package.
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Path:     pkg.Path,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	sortDiagnostics(diags)
	return diags, nil
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
