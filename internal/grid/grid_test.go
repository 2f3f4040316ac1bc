package grid

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMachineConstructors(t *testing.T) {
	f := FastMachine()
	if f.Class != Fast || f.Battery != 580 || f.CommRate != 0.2 || f.ExecRate != 0.1 || f.Bandwidth != 8e6 {
		t.Fatalf("fast machine = %+v", f)
	}
	s := SlowMachine()
	if s.Class != Slow || s.Battery != 58 || s.CommRate != 0.002 || s.ExecRate != 0.001 || s.Bandwidth != 4e6 {
		t.Fatalf("slow machine = %+v", s)
	}
}

func TestClassString(t *testing.T) {
	if Fast.String() != "fast" || Slow.String() != "slow" {
		t.Fatal("Class.String wrong")
	}
	if Class(9).String() != "Class(9)" {
		t.Fatal("unknown class string wrong")
	}
}

func TestCaseCounts(t *testing.T) {
	cases := []struct {
		c          Case
		fast, slow int
		name       string
	}{
		{CaseA, 2, 2, "A"},
		{CaseB, 2, 1, "B"},
		{CaseC, 1, 2, "C"},
	}
	for _, c := range cases {
		f, s := c.c.Counts()
		if f != c.fast || s != c.slow {
			t.Errorf("Case %v counts = (%d,%d), want (%d,%d)", c.c, f, s, c.fast, c.slow)
		}
		if c.c.String() != c.name {
			t.Errorf("Case %v name = %q", c.c, c.c.String())
		}
	}
}

func TestForCaseLayout(t *testing.T) {
	g := ForCase(CaseA)
	if g.M() != 4 {
		t.Fatalf("Case A |M| = %d", g.M())
	}
	// Fast machines first — machine 0 is the §VI reference machine.
	if g.Machines[0].Class != Fast || g.Machines[1].Class != Fast ||
		g.Machines[2].Class != Slow || g.Machines[3].Class != Slow {
		t.Fatalf("Case A layout wrong: %+v", g.Machines)
	}
	if ForCase(CaseB).M() != 3 || ForCase(CaseC).M() != 3 {
		t.Fatal("Case B/C sizes wrong")
	}
}

func TestTSE(t *testing.T) {
	if got := ForCase(CaseA).TSE(); got != 2*580+2*58 {
		t.Fatalf("Case A TSE = %v", got)
	}
	if got := ForCase(CaseB).TSE(); got != 2*580+58 {
		t.Fatalf("Case B TSE = %v", got)
	}
	if got := ForCase(CaseC).TSE(); got != 580+2*58 {
		t.Fatalf("Case C TSE = %v", got)
	}
}

func TestCMT(t *testing.T) {
	g := ForCase(CaseA)
	// fast <-> fast: 1/8e6
	if got := g.CMT(0, 1); math.Abs(got-1/8e6) > 1e-18 {
		t.Fatalf("CMT(fast,fast) = %v", got)
	}
	// fast <-> slow: limited by slow 4e6, symmetric.
	if got := g.CMT(0, 2); math.Abs(got-1/4e6) > 1e-18 {
		t.Fatalf("CMT(fast,slow) = %v", got)
	}
	if g.CMT(0, 2) != g.CMT(2, 0) {
		t.Fatal("CMT not symmetric")
	}
	// Same machine: free.
	if g.CMT(1, 1) != 0 {
		t.Fatal("same-machine CMT should be 0")
	}
}

func TestCommTime(t *testing.T) {
	g := ForCase(CaseA)
	// 8 Mbit between two fast machines: 1 second.
	if got := g.CommTime(8e6, 0, 1); math.Abs(got-1) > 1e-12 {
		t.Fatalf("CommTime = %v, want 1", got)
	}
	if got := g.CommTime(8e6, 0, 0); got != 0 {
		t.Fatalf("same-machine CommTime = %v", got)
	}
}

func TestWorstCommTime(t *testing.T) {
	g := ForCase(CaseA)
	// Worst case from a fast machine is the 4 Mb/s slow link.
	if got := g.WorstCommTime(4e6, 0); math.Abs(got-1) > 1e-12 {
		t.Fatalf("WorstCommTime = %v, want 1", got)
	}
	if g.MinBandwidth() != 4e6 {
		t.Fatalf("MinBandwidth = %v", g.MinBandwidth())
	}
}

func TestEnergyLedger(t *testing.T) {
	g := ForCase(CaseB)
	l := NewEnergyLedger(g)
	if l.Remaining(0) != 580 || l.Remaining(2) != 58 {
		t.Fatal("initial ledger wrong")
	}
	if err := l.Charge(0, 100); err != nil {
		t.Fatal(err)
	}
	if l.Remaining(0) != 480 {
		t.Fatalf("after charge: %v", l.Remaining(0))
	}
	if got := l.Consumed(g); math.Abs(got-100) > 1e-12 {
		t.Fatalf("Consumed = %v", got)
	}
	if err := l.Charge(0, 1e9); err == nil {
		t.Fatal("overdraw accepted")
	}
	if l.Remaining(0) != 480 {
		t.Fatal("failed charge mutated ledger")
	}
	l.Refund(0, 80)
	if l.Remaining(0) != 560 {
		t.Fatalf("after refund: %v", l.Remaining(0))
	}
	if err := l.Charge(0, -1); err == nil {
		t.Fatal("negative charge accepted")
	}
}

func TestSecondsToCycles(t *testing.T) {
	cases := []struct {
		sec  float64
		want int64
	}{
		{0, 0}, {-1, 0}, {0.1, 1}, {0.05, 1}, {0.1000001, 2}, {1.0, 10}, {34075, 340750},
	}
	for _, c := range cases {
		if got := SecondsToCycles(c.sec); got != c.want {
			t.Errorf("SecondsToCycles(%v) = %d, want %d", c.sec, got, c.want)
		}
	}
}

func TestCyclesRoundTripProperty(t *testing.T) {
	f := func(ms uint32) bool {
		sec := float64(ms) / 1000
		c := SecondsToCycles(sec)
		// Booked cycles always cover the duration...
		if CyclesToSeconds(c) < sec-1e-9 {
			return false
		}
		// ...and overshoot by less than one cycle.
		return CyclesToSeconds(c) < sec+CycleSeconds+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTauCycles(t *testing.T) {
	if got := TauCycles(1024); got != 340750 {
		t.Fatalf("TauCycles(1024) = %d, want 340750", got)
	}
	// Linear scaling: 256 subtasks -> a quarter of the deadline.
	if got := TauCycles(256); got != 340750/4+boolToInt64(340750%4 != 0) {
		t.Fatalf("TauCycles(256) = %d", got)
	}
	if TauCycles(2048) <= TauCycles(1024) {
		t.Fatal("TauCycles not monotone in n")
	}
}

func boolToInt64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
