// Package lint implements qpipe-lint: two static analyzers for the engine
// invariants the types do not yet make unwritable — rows read from a buffer
// are never written (rowlint) and heap-page mutation only in the storage
// manager's logged apply step (walint). Fan-out, spill-file cleanup, sub-worker contexts and
// output-port errors need no analyzer: a plan node has no fan-out field, a
// spill file is created only through its packet, which drops it, operator
// code runs on another goroutine only through core.Runtime.Fan, which
// hands each worker its context, and the output port keeps why it
// stopped, which the packet's completion reads.
//
// The package mirrors the golang.org/x/tools/go/analysis vocabulary
// (Analyzer, Pass, Diagnostic, an analysistest-style test runner) but is
// built on the standard library alone: packages are loaded
// with `go list` plus go/parser and go/types, and stdlib dependencies are
// imported from build-cache export data. That keeps the linter runnable in
// hermetic environments with nothing but the Go toolchain, and the API
// close enough to x/tools that migrating onto the real framework later is a
// mechanical substitution.
//
// Every diagnostic can be suppressed at the line it fires on (or the line
// directly above) with an explicit, justified directive:
//
//	//qpipelint:ignore <analyzer> <reason>
//
// Unknown analyzer names and directives missing a reason are themselves
// diagnostics — a typoed suppression must never become a silent one.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one invariant checker. The shape deliberately
// matches golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //qpipelint:ignore directives. Lower-case, no spaces.
	Name string

	// Doc is the one-paragraph description shown by `qpipe-lint -list`.
	Doc string

	// Run executes the analyzer over one package.
	Run func(*Pass) error
}

// A Diagnostic is one finding, already resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass carries one analyzer's view of one type-checked package, again
// shaped after analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes every analyzer over every package and returns the raw
// diagnostics sorted by position. Ignore directives are NOT applied here —
// see ApplyDirectives — so tests can assert on the unfiltered stream.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: analyzer %s failed on %s: %w", a.Name, pkg.Path, err)
			}
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
		return a.Message < b.Message
	})
}
