// Package lint is a minimal, dependency-free analysis framework shaped
// like golang.org/x/tools/go/analysis, carrying the adhoclint analyzer
// suite (see suite.go). The module builds offline with no third-party
// dependencies, so instead of importing x/tools the package reimplements
// the small slice of the go/analysis contract the suite needs: an
// Analyzer with a Run function over a type-checked Pass, positional
// Diagnostics, and source-level exemption directives.
//
// # Exemption directives
//
// A finding is suppressed by a justification comment of the form
//
//	//lint:<directive> <one-line justification>
//
// placed either on the offending line itself (trailing comment) or on
// the line immediately above it. The justification text is mandatory: a
// bare directive does not exempt anything, so every suppression carries
// its proof in the source. Each analyzer documents its directive name
// (detrange uses "sorted"; the others use their own name).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and test expectations.
	Name string
	// Directive is the //lint:<directive> name that exempts a finding.
	Directive string
	// Run reports findings on one type-checked package via pass.Reportf.
	Run func(*Pass) error
}

// A Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Message  string
	Analyzer *Analyzer
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer.Name)
}

// A Pass connects one analyzer to one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags   []Diagnostic
	exempts map[string]map[string]bool // directive -> "file:line" covered
}

// NewPass builds a pass and indexes the files' exemption directives.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) *Pass {
	p := &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info,
		exempts: make(map[string]map[string]bool)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				dir, just, ok := parseDirective(c.Text)
				if !ok || just == "" {
					// A directive with no justification exempts nothing;
					// the underlying diagnostic stays live, which is the
					// prompt to write the proof.
					continue
				}
				pos := fset.Position(c.Pos())
				m := p.exempts[dir]
				if m == nil {
					m = make(map[string]bool)
					p.exempts[dir] = m
				}
				// A directive covers its own line (trailing comment) and
				// the line below it (standalone comment above the code).
				m[lineKey(pos.Filename, pos.Line)] = true
				m[lineKey(pos.Filename, pos.Line+1)] = true
			}
		}
	}
	return p
}

// parseDirective splits "//lint:name justification".
func parseDirective(text string) (name, justification string, ok bool) {
	const prefix = "//lint:"
	if !strings.HasPrefix(text, prefix) {
		return "", "", false
	}
	rest := strings.TrimPrefix(text, prefix)
	name, justification, _ = strings.Cut(rest, " ")
	return name, strings.TrimSpace(justification), name != ""
}

// lineKey packs a (file, line) pair into a map key.
func lineKey(file string, line int) string {
	return fmt.Sprintf("%s:%d", file, line)
}

// Exempted reports whether the analyzer's directive covers pos.
func (p *Pass) Exempted(pos token.Pos) bool {
	m := p.exempts[p.Analyzer.Directive]
	if m == nil {
		return false
	}
	position := p.Fset.Position(pos)
	return m[lineKey(position.Filename, position.Line)]
}

// Reportf records a finding at pos unless an exemption directive covers
// it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.Exempted(pos) {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer,
	})
}

// Run executes the analyzer and returns its findings in file/line order.
func (p *Pass) Run() ([]Diagnostic, error) {
	if err := p.Analyzer.Run(p); err != nil {
		return nil, fmt.Errorf("%s: %w", p.Analyzer.Name, err)
	}
	SortDiagnostics(p.diags)
	return p.diags, nil
}

// SortDiagnostics orders findings by file, line, column, then analyzer,
// so driver output is stable across runs and platforms.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer.Name < b.Analyzer.Name
	})
}

// Inspect applies f to every node of every file, as ast.Inspect does.
func Inspect(files []*ast.File, f func(ast.Node) bool) {
	for _, file := range files {
		ast.Inspect(file, f)
	}
}

// BareDirective owns the framework-level directive hygiene check. It
// is not part of Suite() — it has no Run and needs no type info — but
// the driver runs BareDirectives on every package so a malformed
// exemption is an error instead of a silent no-op.
var BareDirective = &Analyzer{Name: "baredirective"}

// BareDirectives scans files for //lint: directives that are bare (no
// justification — they exempt nothing, so they are dead weight that
// looks like a suppression) or unknown (no analyzer owns the name).
// known is the owned-directive set, normally KnownDirectives(Suite()).
func BareDirectives(fset *token.FileSet, files []*ast.File, known map[string]bool) []Diagnostic {
	var diags []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				dir, just, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				switch {
				case !known[dir]:
					diags = append(diags, Diagnostic{
						Pos:      fset.Position(c.Pos()),
						Message:  fmt.Sprintf("unknown //lint:%s directive: no analyzer owns it", dir),
						Analyzer: BareDirective,
					})
				case just == "":
					diags = append(diags, Diagnostic{
						Pos:      fset.Position(c.Pos()),
						Message:  fmt.Sprintf("bare //lint:%s directive exempts nothing; add a one-line justification", dir),
						Analyzer: BareDirective,
					})
				}
			}
		}
	}
	SortDiagnostics(diags)
	return diags
}

// KnownDirectives collects the directive names the suite's analyzers
// own.
func KnownDirectives(suite []ScopedAnalyzer) map[string]bool {
	known := make(map[string]bool, len(suite))
	for _, sa := range suite {
		if sa.Directive != "" {
			known[sa.Directive] = true
		}
	}
	return known
}
