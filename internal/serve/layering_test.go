package serve

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestServeDoesNotLinkHarness keeps the experiment harness out of the
// slrhd binary: walking serve's non-test module imports (by reading
// the source with go/build, so no go subprocess starts) must never
// reach the experiment tables and figures, the weight search, the §VI
// bound, the fan-out primitive, the statistics helpers or the LRNN
// reference.
func TestServeDoesNotLinkHarness(t *testing.T) {
	const module = "adhocgrid/"
	forbidden := map[string]bool{
		"adhocgrid/internal/exp":   true,
		"adhocgrid/internal/opt":   true,
		"adhocgrid/internal/bound": true,
		"adhocgrid/internal/par":   true,
		"adhocgrid/internal/stats": true,
		"adhocgrid/internal/lrnn":  true,
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	// via[p] is the package whose import first reached p.
	via := map[string]string{"adhocgrid/internal/serve": ""}
	queue := []string{"adhocgrid/internal/serve"}
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		pkg, err := build.ImportDir(filepath.Join(root, strings.TrimPrefix(path, module)), 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, imp := range pkg.Imports {
			if !strings.HasPrefix(imp, module) {
				continue
			}
			if _, seen := via[imp]; seen {
				continue
			}
			via[imp] = path
			if forbidden[imp] {
				chain := imp
				for p := path; p != ""; p = via[p] {
					chain = p + " → " + chain
				}
				t.Errorf("serve links the harness: %s", chain)
			}
			queue = append(queue, imp)
		}
	}
}
