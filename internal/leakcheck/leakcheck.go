// Package leakcheck is a dependency-free goroutine leak detector in
// the style of goleak: it snapshots the process's goroutines via
// runtime.Stack, filters out the stable runtime/testing background
// stacks, and reports whatever remains. Wired into a package through
// TestMain it turns "a handler forgot to stop its worker" from a slow
// resource leak into an immediate test failure — the dynamic
// counterpart of the static ctxflow analyzer.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// A Goroutine is one parsed entry of a full runtime.Stack dump.
type Goroutine struct {
	ID    string // numeric id as text; only used for display
	State string // "chan receive", "select", "IO wait", ...
	Funcs []string
	// CreatedBy is the spawning function, or "" for the main goroutine.
	CreatedBy string
	Raw       string
}

// First returns the topmost function on the goroutine's stack, the
// identity goleak-style filtering keys on.
func (g Goroutine) First() string {
	if len(g.Funcs) == 0 {
		return ""
	}
	return g.Funcs[0]
}

// stableStacks are substrings identifying goroutines that belong to
// the runtime, the testing harness, or the net/http machinery's
// bounded-lifetime helpers. A goroutine whose stack mentions any of
// them is never reported.
var stableStacks = []string{
	"testing.Main",
	"testing.tRunner",
	"testing.(*M).",
	"testing.runTests",
	"testing.runFuzzTests",
	"os/signal.signal_recv",
	"os/signal.loop",
	"runtime.ReadTrace",
	"net/http.(*persistConn).readLoop",
	"net/http.(*persistConn).writeLoop",
	"net/http.(*Transport).",
	"net/http/httptest.(*Server).goServe", // Close waits for handlers, not the accept loop's final return
	"leakcheck.Snapshot",
	"leakcheck.Main",
}

// Snapshot parses a full goroutine dump of the current process.
func Snapshot() []Goroutine {
	// Grow the buffer until the dump fits.
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	var out []Goroutine
	for _, block := range strings.Split(string(buf), "\n\n") {
		if g, ok := parseGoroutine(block); ok {
			out = append(out, g)
		}
	}
	return out
}

// parseGoroutine decodes one "goroutine N [state]:" block.
func parseGoroutine(block string) (Goroutine, bool) {
	lines := strings.Split(strings.TrimSpace(block), "\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "goroutine ") {
		return Goroutine{}, false
	}
	header := strings.TrimPrefix(lines[0], "goroutine ")
	id, rest, ok := strings.Cut(header, " ")
	if !ok {
		return Goroutine{}, false
	}
	g := Goroutine{
		ID:    id,
		State: strings.TrimSuffix(strings.TrimPrefix(strings.TrimSuffix(rest, ":"), "["), "]"),
		Raw:   block,
	}
	// Durations like "chan receive, 3 minutes" carry no identity.
	if i := strings.IndexByte(g.State, ','); i >= 0 {
		g.State = g.State[:i]
	}
	for _, line := range lines[1:] {
		if strings.HasPrefix(line, "\t") { // file:line frame detail
			continue
		}
		if created, ok := strings.CutPrefix(line, "created by "); ok {
			// "created by pkg.fn in goroutine 7"
			if i := strings.Index(created, " in goroutine"); i >= 0 {
				created = created[:i]
			}
			g.CreatedBy = created
			continue
		}
		// "pkg.fn(0x..., ...)" — strip the argument list.
		fn := line
		if i := strings.IndexByte(fn, '('); i >= 0 {
			// keep method receivers: pkg.(*T).fn(args) cuts at the
			// last '(' preceding the args, which is the first '(' NOT
			// followed by '*'.
			fn = trimArgs(fn)
		}
		g.Funcs = append(g.Funcs, fn)
	}
	return g, true
}

// trimArgs removes the trailing "(...)" argument list from a frame
// line while preserving "(*T)" receiver syntax.
func trimArgs(line string) string {
	for i := len(line) - 1; i >= 0; i-- {
		if line[i] == '(' {
			if i+1 < len(line) && line[i+1] == '*' {
				return line // receiver parens only; no args recorded
			}
			return line[:i]
		}
	}
	return line
}

// interesting reports whether g is a potential leak: not the calling
// goroutine, not a runtime background worker, and not on the stable
// list.
func interesting(g Goroutine, self string) bool {
	if g.ID == self {
		return false
	}
	if strings.HasPrefix(g.First(), "runtime.") || g.First() == "" {
		return false
	}
	for _, frame := range g.Funcs {
		for _, stable := range stableStacks {
			if strings.Contains(frame, stable) {
				return false
			}
		}
	}
	if g.CreatedBy != "" {
		for _, stable := range stableStacks {
			if strings.Contains(g.CreatedBy, stable) {
				return false
			}
		}
	}
	return true
}

// currentID extracts the calling goroutine's id from a single-
// goroutine stack dump.
func currentID() string {
	buf := make([]byte, 256)
	n := runtime.Stack(buf, false)
	header := strings.TrimPrefix(string(buf[:n]), "goroutine ")
	id, _, _ := strings.Cut(header, " ")
	return id
}

// find returns the goroutines that look leaked right now, after
// filtering stable stacks.
func find() []Goroutine {
	self := currentID()
	var leaks []Goroutine
	for _, g := range Snapshot() {
		if interesting(g, self) {
			leaks = append(leaks, g)
		}
	}
	return leaks
}

// retrySchedule spaces the settle-down polls: freshly finished tests
// legitimately have goroutines mid-exit, so transient sightings get a
// grace period before being declared leaks.
var retrySchedule = []time.Duration{
	1 * time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
	10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
	800 * time.Millisecond,
}

// settle polls until no leaks remain or the schedule is exhausted,
// returning the final set.
func settle() []Goroutine {
	leaks := find()
	for _, d := range retrySchedule {
		if len(leaks) == 0 {
			return nil
		}
		time.Sleep(d)
		leaks = find()
	}
	return leaks
}

// Main wraps m.Run for a package TestMain: it runs the suite, then
// verifies every goroutine the tests spawned has exited. Usage:
//
//	func TestMain(m *testing.M) { os.Exit(leakcheck.Main(m)) }
func Main(m *testing.M) int {
	code := m.Run()
	if code != 0 {
		return code
	}
	leaks := settle()
	for _, g := range leaks {
		fmt.Fprintf(os.Stderr, "leakcheck: leaked goroutine %s [%s] created by %s:\n%s\n\n",
			g.ID, g.State, g.CreatedBy, g.Raw)
	}
	if len(leaks) > 0 {
		fmt.Fprintf(os.Stderr, "leakcheck: %d goroutine(s) outlived the test suite\n", len(leaks))
		return 1
	}
	return code
}
