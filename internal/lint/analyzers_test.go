package lint_test

import (
	"path/filepath"
	"testing"

	"adhocgrid/internal/lint"
	"adhocgrid/internal/lint/linttest"
)

func TestDetrange(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "detrange"), lint.Detrange)
}

func TestWallclock(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "wallclock"), lint.Wallclock)
}

func TestErrdrop(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "errdrop"), lint.Errdrop)
}

func TestLockbalance(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "lockbalance"), lint.Lockbalance)
}

func TestCtxflow(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "ctxflow"), lint.Ctxflow)
}
