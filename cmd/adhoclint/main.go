// Command adhoclint runs the repository's invariant analyzers (see
// internal/lint) over Go packages. It is a multichecker in the style of
// golang.org/x/tools/go/analysis, implemented entirely on the standard
// library so the module keeps zero third-party dependencies.
//
// Usage (the `make lint` gate):
//
//	adhoclint [packages]     # default ./...
//
// Exit status is 0 when clean, 2 when findings were reported, 1 on
// driver errors. Only non-test files are analyzed: tests may
// deliberately exercise nondeterminism.
package main

import (
	"errors"
	"flag"
	"fmt"
	"go/token"
	"go/types"
	"os"
	"sort"

	"adhocgrid/internal/lint"
	"adhocgrid/internal/lint/load"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("adhoclint", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: adhoclint [packages]   (default ./...)")
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 1
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	// Load the named patterns (plus dependencies' export data),
	// type-check each target package from source, and apply every
	// in-scope analyzer.
	pkgs, err := load.List("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	exports := load.Exports(pkgs)

	var targets []*load.Package
	for _, p := range pkgs {
		if !p.DepOnly && !p.Standard && len(p.GoFiles) > 0 {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := load.Importer(fset, nil, exports)
	var diags []lint.Diagnostic
	for _, p := range targets {
		ds, err := analyzePackage(fset, p, imp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "adhoclint: %s: %v\n", p.ImportPath, err)
			return 1
		}
		diags = append(diags, ds...)
	}

	lint.SortDiagnostics(diags)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "adhoclint: %d finding(s)\n", len(diags))
		return 2
	}
	return 0
}

// analyzePackage type-checks one package's non-test files (go list's
// GoFiles) from source and runs every analyzer whose scope covers it.
func analyzePackage(fset *token.FileSet, p *load.Package, imp types.Importer) ([]lint.Diagnostic, error) {
	files, err := load.ParseDir(fset, p.Dir, p.GoFiles)
	if err != nil {
		return nil, err
	}
	pkg, info, err := load.Check(fset, p.ImportPath, files, imp)
	if err != nil {
		return nil, err
	}
	var diags []lint.Diagnostic
	for _, a := range lint.Suite() {
		if !a.AppliesTo(p.ImportPath) {
			continue
		}
		ds, err := lint.NewPass(a.Analyzer, fset, files, pkg, info).Run()
		if err != nil {
			return nil, err
		}
		diags = append(diags, ds...)
	}
	// Framework-level directive hygiene: a bare or unknown //lint:
	// directive is an error everywhere, regardless of analyzer scope.
	return append(diags, lint.BareDirectives(fset, files, lint.KnownDirectives(lint.Suite()))...), nil
}
