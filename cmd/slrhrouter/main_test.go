package main

import "testing"

// TestRunHelp: -h prints the usage and succeeds, so `slrhrouter -h`
// exits 0.
func TestRunHelp(t *testing.T) {
	if err := run([]string{"-h"}); err != nil {
		t.Fatalf("run(-h) = %v, want nil", err)
	}
}
