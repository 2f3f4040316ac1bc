package main

import "testing"

// TestValidExperiment: -exp accepts "all" and each named experiment,
// and refuses anything else, so a typo exits 2 instead of running
// nothing and exiting 0.
func TestValidExperiment(t *testing.T) {
	cases := []struct {
		name string
		want bool
	}{
		{"all", true},
		{"table1", true},
		{"table4", true},
		{"fig2", true},
		{"fig7", true},
		{"horizon", true},
		{"robustness", true},
		{"faults", true},
		{"scaling", true},
		{"perf", true},
		{"bogus", false},
		{"fig9", false},
		{"fig1", false},
		{"table5", false},
		{"", false},
	}
	for _, c := range cases {
		if got := validExperiment(c.name); got != c.want {
			t.Errorf("validExperiment(%q) = %v, want %v", c.name, got, c.want)
		}
	}
}
