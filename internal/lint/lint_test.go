package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func TestParseDirective(t *testing.T) {
	cases := []struct {
		text       string
		name, just string
		ok         bool
	}{
		{"//lint:sorted order cannot escape", "sorted", "order cannot escape", true},
		{"//lint:wallclock elapsed-time reporting", "wallclock", "elapsed-time reporting", true},
		{"//lint:sorted", "sorted", "", true}, // bare directive parses but carries no proof
		{"//lint:sorted   ", "sorted", "", true},
		{"// lint:sorted not a directive", "", "", false},
		{"// plain comment", "", "", false},
	}
	for _, c := range cases {
		name, just, ok := parseDirective(c.text)
		if ok != c.ok || name != c.name || just != c.just {
			t.Errorf("parseDirective(%q) = (%q, %q, %v), want (%q, %q, %v)",
				c.text, name, just, ok, c.name, c.just, c.ok)
		}
	}
}

func TestSuiteScopes(t *testing.T) {
	byName := map[string]ScopedAnalyzer{}
	for _, a := range Suite() {
		byName[a.Name] = a
	}
	cases := []struct {
		analyzer, pkg string
		want          bool
	}{
		{"detrange", "adhocgrid/internal/sched", true},
		{"detrange", "adhocgrid/internal/sim", true},
		{"detrange", "adhocgrid/internal/fabric", true},
		{"detrange", "adhocgrid/internal/chaos", true},
		{"detrange", "adhocgrid/cmd/slrhrouter", true},
		// slrhsim's -json bytes must match the service's, so map order
		// may not reach them either.
		{"detrange", "adhocgrid/cmd/slrhsim", true},
		{"detrange", "adhocgrid/internal/rng", false},
		{"detrange", "adhocgrid/internal/lint", false},
		{"errdrop", "adhocgrid/cmd/slrhsim", true},
		{"errdrop", "adhocgrid/cmd/slrhrouter", true},
		{"errdrop", "adhocgrid/internal/exp", true},
		{"errdrop", "adhocgrid/internal/fabric", true},
		{"errdrop", "adhocgrid/internal/chaos", true},
		{"errdrop", "adhocgrid/internal/sched", false},
		// The concurrency analyzers and wallclock audit every package:
		// a new lock or handler anywhere is covered without a scope row.
		{"wallclock", "adhocgrid/internal/anything", true},
		{"lockbalance", "adhocgrid/internal/serve", true},
		{"lockbalance", "adhocgrid/internal/sched", true},
		{"lockbalance", "adhocgrid/bench", true},
		{"ctxflow", "adhocgrid/internal/serve", true},
		{"ctxflow", "adhocgrid/internal/exp", true},
		{"ctxflow", "adhocgrid/bench", true},
	}
	for _, c := range cases {
		a, ok := byName[c.analyzer]
		if !ok {
			t.Fatalf("analyzer %s not in suite", c.analyzer)
		}
		if got := a.AppliesTo(c.pkg); got != c.want {
			t.Errorf("%s.AppliesTo(%q) = %v, want %v", c.analyzer, c.pkg, got, c.want)
		}
	}
}

func TestBareDirectives(t *testing.T) {
	const src = `package p

func f() {
	//lint:wallclock elapsed-time telemetry only
	_ = 1
	//lint:wallclock
	_ = 2
	_ = 3 //lint:nosuchthing because reasons
}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	diags := BareDirectives(fset, []*ast.File{file}, KnownDirectives(Suite()))
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %+v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "bare //lint:wallclock") {
		t.Errorf("diag 0 = %q, want bare-directive report", diags[0].Message)
	}
	if !strings.Contains(diags[1].Message, "unknown //lint:nosuchthing") {
		t.Errorf("diag 1 = %q, want unknown-directive report", diags[1].Message)
	}
	if diags[0].Pos.Line >= diags[1].Pos.Line {
		t.Errorf("diagnostics not sorted by line: %d then %d", diags[0].Pos.Line, diags[1].Pos.Line)
	}
}

func TestKnownDirectivesCoverSuite(t *testing.T) {
	known := KnownDirectives(Suite())
	for _, a := range Suite() {
		if a.Directive != "" && !known[a.Directive] {
			t.Errorf("directive %q of analyzer %s missing from KnownDirectives", a.Directive, a.Name)
		}
	}
	if known[""] {
		t.Error("empty directive must not be known")
	}
}

func TestSortDiagnosticsAcrossFiles(t *testing.T) {
	mk := func(file string, line int, a *Analyzer, msg string) Diagnostic {
		return Diagnostic{Pos: token.Position{Filename: file, Line: line}, Analyzer: a, Message: msg}
	}
	diags := []Diagnostic{
		mk("b.go", 3, Wallclock, "later file"),
		mk("a.go", 9, Wallclock, "first file, later line"),
		mk("a.go", 2, Wallclock, "same position, later analyzer"),
		mk("a.go", 2, Detrange, "same position, earlier analyzer"),
	}
	SortDiagnostics(diags)
	got := make([]string, len(diags))
	for i, d := range diags {
		got[i] = d.Message
	}
	want := []string{"same position, earlier analyzer", "same position, later analyzer", "first file, later line", "later file"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted order = %v, want %v", got, want)
		}
	}
}
