package main

import (
	"testing"

	"adhocgrid/internal/lint"
)

// TestRegisteredAnalyzers locks the driver to the exact analyzer set:
// adding or removing an analyzer must be a deliberate, test-visible
// change.
func TestRegisteredAnalyzers(t *testing.T) {
	want := []string{"ctxflow", "detrange", "errdrop", "lockbalance", "wallclock"}
	suite := lint.Suite()
	if len(suite) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(suite), len(want))
	}
	for i, a := range suite {
		if a.Name != want[i] {
			t.Errorf("suite[%d] = %s, want %s", i, a.Name, want[i])
		}
		if a.Directive == "" || a.Run == nil {
			t.Errorf("%s: incomplete registration (directive/run must be set)", a.Name)
		}
		if a.AppliesTo == nil {
			t.Errorf("%s: missing scope policy", a.Name)
		}
	}
}
