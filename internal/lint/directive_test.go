package lint

import (
	"go/token"
	"strings"
	"testing"
)

// otherLint is a test-local third analyzer, so the directive tests can name
// one analyzer beside the suite's two.
var otherLint = &Analyzer{Name: "otherlint", Doc: "test stand-in"}

// applyOn parses src as a single-file package and filters diags through its
// directives with the real analyzer set plus otherLint.
func applyOn(t *testing.T, src string, diags []Diagnostic) []Diagnostic {
	t.Helper()
	pkg := mustParse(t, "p.go", src)
	return ApplyDirectives([]*Package{pkg}, diags, append(All(), otherLint))
}

func diagAt(file string, line int, analyzer, msg string) Diagnostic {
	return Diagnostic{
		Pos:      token.Position{Filename: file, Line: line, Column: 1},
		Analyzer: analyzer,
		Message:  msg,
	}
}

func TestDirectiveSuppressesTrailing(t *testing.T) {
	src := `package p

func f() {
	_ = 1 //qpipelint:ignore rowlint the row is a private copy
}
`
	out := applyOn(t, src, []Diagnostic{diagAt("p.go", 4, "rowlint", "row written")})
	if len(out) != 0 {
		t.Fatalf("trailing directive did not suppress: %v", out)
	}
}

func TestDirectiveSuppressesNextLine(t *testing.T) {
	src := `package p

func f() {
	//qpipelint:ignore otherlint error is re-checked by the result collector
	_ = 1
}
`
	out := applyOn(t, src, []Diagnostic{diagAt("p.go", 5, "otherlint", "error discarded")})
	if len(out) != 0 {
		t.Fatalf("standalone directive did not suppress the next line: %v", out)
	}
}

func TestDirectiveOnlyNamedAnalyzer(t *testing.T) {
	src := `package p

func f() {
	_ = 1 //qpipelint:ignore rowlint reason here
}
`
	keep := diagAt("p.go", 4, "otherlint", "error discarded")
	out := applyOn(t, src, []Diagnostic{keep})
	if len(out) != 1 || out[0].Analyzer != "otherlint" {
		t.Fatalf("directive for rowlint suppressed an otherlint diagnostic: %v", out)
	}
}

func TestDirectiveWrongLineDoesNotSuppress(t *testing.T) {
	src := `package p

//qpipelint:ignore rowlint reason here

func f() {
	_ = 1
}
`
	keep := diagAt("p.go", 6, "rowlint", "row written")
	out := applyOn(t, src, []Diagnostic{keep})
	if len(out) != 1 {
		t.Fatalf("directive three lines away suppressed a diagnostic: %v", out)
	}
}

func TestDirectiveTrailingDoesNotBleedToNextLine(t *testing.T) {
	src := `package p

func f() {
	_ = 1 //qpipelint:ignore rowlint covers this line only
	_ = 2
}
`
	keep := diagAt("p.go", 5, "rowlint", "row written")
	out := applyOn(t, src, []Diagnostic{keep})
	if len(out) != 1 {
		t.Fatalf("trailing directive suppressed the following line too: %v", out)
	}
}

func TestDirectiveUnknownAnalyzer(t *testing.T) {
	src := `package p

func f() {
	_ = 1 //qpipelint:ignore leaslint typo in the analyzer name
}
`
	victim := diagAt("p.go", 4, "rowlint", "row written")
	out := applyOn(t, src, []Diagnostic{victim})
	if len(out) != 2 {
		t.Fatalf("want malformed-directive diagnostic plus the unsuppressed original, got %v", out)
	}
	var sawMalformed, sawOriginal bool
	for _, d := range out {
		if d.Analyzer == "qpipelint" && strings.Contains(d.Message, `unknown analyzer "leaslint"`) &&
			strings.Contains(d.Message, "known:") {
			sawMalformed = true
		}
		if d.Analyzer == "rowlint" {
			sawOriginal = true
		}
	}
	if !sawMalformed || !sawOriginal {
		t.Fatalf("unknown-analyzer directive must report itself and suppress nothing: %v", out)
	}
}

func TestDirectiveMissingReason(t *testing.T) {
	src := `package p

func f() {
	_ = 1 //qpipelint:ignore rowlint
}
`
	out := applyOn(t, src, nil)
	if len(out) != 1 || out[0].Analyzer != "qpipelint" || !strings.Contains(out[0].Message, "missing reason") {
		t.Fatalf("reason-less directive must produce a qpipelint diagnostic, got %v", out)
	}
}

func TestDirectiveMissingEverything(t *testing.T) {
	src := `package p

func f() {
	_ = 1 //qpipelint:ignore
}
`
	out := applyOn(t, src, nil)
	if len(out) != 1 || out[0].Analyzer != "qpipelint" ||
		!strings.Contains(out[0].Message, "missing analyzer name and reason") {
		t.Fatalf("bare directive must produce a qpipelint diagnostic, got %v", out)
	}
}

func TestDirectiveMultipleAnalyzers(t *testing.T) {
	src := `package p

func f() {
	_ = 1 //qpipelint:ignore rowlint,otherlint shared ownership documented above
}
`
	diags := []Diagnostic{
		diagAt("p.go", 4, "rowlint", "row written"),
		diagAt("p.go", 4, "otherlint", "error discarded"),
		diagAt("p.go", 4, "walint", "page mutated outside apply"),
	}
	out := applyOn(t, src, diags)
	if len(out) != 1 || out[0].Analyzer != "walint" {
		t.Fatalf("comma list must suppress exactly the named analyzers: %v", out)
	}
}

func TestDirectiveLookalikeIgnored(t *testing.T) {
	src := `package p

func f() {
	_ = 1 //qpipelint:ignoreall not a real directive
}
`
	keep := diagAt("p.go", 4, "rowlint", "row written")
	out := applyOn(t, src, []Diagnostic{keep})
	if len(out) != 1 || out[0].Analyzer != "rowlint" {
		t.Fatalf("lookalike comment must neither suppress nor report: %v", out)
	}
}

func TestByName(t *testing.T) {
	sel, unknown, ok := ByName([]string{"rowlint", "walint"})
	if !ok || unknown != "" || len(sel) != 2 {
		t.Fatalf("ByName(rowlint,walint) = %v, %q, %v", sel, unknown, ok)
	}
	_, unknown, ok = ByName([]string{"rowlint", "nosuch"})
	if ok || unknown != "nosuch" {
		t.Fatalf("ByName must surface unknown names, got %q %v", unknown, ok)
	}
}
