package serve

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestDaemonsDoNotLinkHarness keeps the experiment harness and test
// code out of the slrhd and slrhrouter binaries: walking the non-test
// module imports of serve and of both commands (by reading the source
// with go/build, so no go subprocess starts) must never reach the
// experiment tables and figures, the weight search, the §VI bound, the
// fan-out primitive, the statistics helpers, the LRNN reference, the
// goroutine leak detector or the standard testing package.
func TestDaemonsDoNotLinkHarness(t *testing.T) {
	const module = "adhocgrid/"
	forbidden := map[string]bool{
		"adhocgrid/internal/exp":       true,
		"adhocgrid/internal/opt":       true,
		"adhocgrid/internal/bound":     true,
		"adhocgrid/internal/par":       true,
		"adhocgrid/internal/stats":     true,
		"adhocgrid/internal/lrnn":      true,
		"adhocgrid/internal/leakcheck": true,
		"testing":                      true,
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	roots := []string{"adhocgrid/internal/serve", "adhocgrid/cmd/slrhd", "adhocgrid/cmd/slrhrouter"}
	// via[p] is the package whose import first reached p.
	via := map[string]string{}
	for _, r := range roots {
		via[r] = ""
	}
	queue := roots
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		pkg, err := build.ImportDir(filepath.Join(root, strings.TrimPrefix(path, module)), 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, imp := range pkg.Imports {
			if _, seen := via[imp]; seen {
				continue
			}
			if forbidden[imp] {
				chain := imp
				for p := path; p != ""; p = via[p] {
					chain = p + " → " + chain
				}
				t.Errorf("a daemon links the harness: %s", chain)
			}
			if !strings.HasPrefix(imp, module) {
				continue
			}
			via[imp] = path
			queue = append(queue, imp)
		}
	}
}
