package exp

import (
	"os"
	"testing"

	"adhocgrid/internal/leakcheck"
)

// TestMain verifies no experiment worker (par.Map goroutines, fault
// injectors) outlives the suite.
func TestMain(m *testing.M) {
	os.Exit(leakcheck.Main(m))
}
