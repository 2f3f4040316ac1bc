package main

import (
	"os"
	"testing"
)

// TestRunHelp: -h prints the usage and succeeds, so `benchrunner -h`
// exits 0 without running the suite.
func TestRunHelp(t *testing.T) {
	if err := run([]string{"-h"}, os.Stdout); err != nil {
		t.Fatalf("run(-h) = %v, want nil", err)
	}
}
