package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"adhocgrid/internal/serve"
)

// newInstance serves one slrhd service for the test's lifetime.
func newInstance(t *testing.T) *httptest.Server {
	t.Helper()
	s := serve.New(serve.Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts
}

// TestRunParity drives `slrhd -parity`: two real instances agree, an
// instance answering other bytes is named in the error, and a single
// address is refused before any probe is sent.
func TestRunParity(t *testing.T) {
	a, b := newInstance(t), newInstance(t)
	if err := runParity(a.URL + ", " + b.URL + "/"); err != nil {
		t.Fatalf("two slrhd instances: %v", err)
	}

	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.WriteString(w, `{"not":"the schedule"}`); err != nil {
			t.Errorf("stub write: %v", err)
		}
	}))
	defer stub.Close()
	err := runParity(a.URL + "," + stub.URL)
	if err == nil || !strings.Contains(err.Error(), "parity violated") || !strings.Contains(err.Error(), stub.URL) {
		t.Fatalf("differing instance: err = %v, want a parity violation naming %s", err, stub.URL)
	}

	if err := runParity(a.URL + ","); err == nil || !strings.Contains(err.Error(), "at least two addresses") {
		t.Fatalf("single address: err = %v, want a refusal", err)
	}
}

// TestRunHelp: -h prints the usage and succeeds, so `slrhd -h` exits 0.
func TestRunHelp(t *testing.T) {
	if err := run([]string{"-h"}); err != nil {
		t.Fatalf("run(-h) = %v, want nil", err)
	}
}
