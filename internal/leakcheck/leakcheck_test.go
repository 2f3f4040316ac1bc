package leakcheck

import (
	"strings"
	"testing"
)

const sampleDump = `goroutine 1 [running]:
main.main()
	/src/main.go:10 +0x1a

goroutine 18 [chan receive, 3 minutes]:
adhocgrid/internal/serve.(*Server).worker(0xc000100000)
	/src/server.go:42 +0x65
created by adhocgrid/internal/serve.New in goroutine 1
	/src/server.go:30 +0x9f

goroutine 19 [syscall]:
os/signal.signal_recv()
	/usr/lib/go/src/runtime/sigqueue.go:152 +0x29
created by os/signal.Notify.func1.1 in goroutine 1
	/usr/lib/go/src/os/signal/signal.go:152 +0x1f

goroutine 20 [GC sweep wait]:
runtime.gopark(0x0, 0x0, 0x0, 0x0, 0x0)
	/usr/lib/go/src/runtime/proc.go:398 +0xce
runtime.bgsweep(0x0)
	/usr/lib/go/src/runtime/mgcsweep.go:280 +0x94
created by runtime.gcenable in goroutine 1
	/usr/lib/go/src/runtime/mgc.go:200 +0x66
`

func TestParseDump(t *testing.T) {
	var gs []Goroutine
	for _, block := range strings.Split(sampleDump, "\n\n") {
		if g, ok := parseGoroutine(block); ok {
			gs = append(gs, g)
		}
	}
	if len(gs) != 4 {
		t.Fatalf("parsed %d goroutines, want 4", len(gs))
	}
	w := gs[1]
	if w.ID != "18" || w.State != "chan receive" {
		t.Errorf("worker parsed as id=%s state=%q", w.ID, w.State)
	}
	if w.First() != "adhocgrid/internal/serve.(*Server).worker" {
		t.Errorf("worker First() = %q", w.First())
	}
	if w.CreatedBy != "adhocgrid/internal/serve.New" {
		t.Errorf("worker CreatedBy = %q", w.CreatedBy)
	}
}

func TestInterestingFilters(t *testing.T) {
	var gs []Goroutine
	for _, block := range strings.Split(sampleDump, "\n\n") {
		if g, ok := parseGoroutine(block); ok {
			gs = append(gs, g)
		}
	}
	want := map[string]bool{"1": true, "18": true, "19": false, "20": false}
	for _, g := range gs {
		// self is "none": no goroutine in the sample is the caller.
		if got := interesting(g, "none"); got != want[g.ID] {
			t.Errorf("interesting(goroutine %s) = %v, want %v", g.ID, got, want[g.ID])
		}
	}
}

func TestFindReportsBlockedGoroutine(t *testing.T) {
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-release
	}()

	leaks := find()
	found := false
	for _, g := range leaks {
		if strings.Contains(g.Raw, "TestFindReportsBlockedGoroutine") {
			found = true
		}
	}
	if !found {
		t.Fatalf("blocked goroutine not reported; leaks: %d", len(leaks))
	}

	close(release)
	<-done
	if leaks := settle(); len(leaks) != 0 {
		for _, g := range leaks {
			t.Errorf("goroutine survived release:\n%s", g.Raw)
		}
	}
}
