// Package grid models the ad hoc computing grid of the paper's §III:
// heterogeneous battery-powered machines (fast notebooks, slow PDAs) with
// per-machine energy capacities, computation/communication energy rates,
// and communication bandwidths (Table 2), assembled into the three
// simulation configurations of Table 1 (Cases A, B and C).
package grid

import (
	"fmt"
	"math"
)

// Class distinguishes the two machine populations of Table 2.
type Class int

const (
	// Fast is the notebook-class machine (paper: Dell Precision M60).
	Fast Class = iota
	// Slow is the PDA-class machine (paper: Dell Axim X5).
	Slow
)

// String returns "fast" or "slow".
func (c Class) String() string {
	switch c {
	case Fast:
		return "fast"
	case Slow:
		return "slow"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Machine holds the four per-machine parameters of Table 2.
type Machine struct {
	Class     Class
	Battery   float64 // B(j): energy capacity, energy units
	CommRate  float64 // C(j): energy units per second while transmitting
	ExecRate  float64 // E(j): energy units per second while computing
	Bandwidth float64 // BW(j): bits per second
}

// Table 2 constants. Bandwidths are megabits/sec in the paper; stored here
// in bits/sec.
const (
	FastBattery   = 580.0
	FastCommRate  = 0.2
	FastExecRate  = 0.1
	FastBandwidth = 8e6

	SlowBattery   = 58.0
	SlowCommRate  = 0.002
	SlowExecRate  = 0.001
	SlowBandwidth = 4e6
)

// FastMachine returns a machine with the Table 2 "fast" parameters.
func FastMachine() Machine {
	return Machine{Class: Fast, Battery: FastBattery, CommRate: FastCommRate,
		ExecRate: FastExecRate, Bandwidth: FastBandwidth}
}

// SlowMachine returns a machine with the Table 2 "slow" parameters.
func SlowMachine() Machine {
	return Machine{Class: Slow, Battery: SlowBattery, CommRate: SlowCommRate,
		ExecRate: SlowExecRate, Bandwidth: SlowBandwidth}
}

// Case identifies one of the Table 1 grid configurations.
type Case int

const (
	// CaseA is the baseline: 2 fast + 2 slow machines.
	CaseA Case = iota
	// CaseB removes one slow machine: 2 fast + 1 slow.
	CaseB
	// CaseC removes one fast machine: 1 fast + 2 slow.
	CaseC
)

// AllCases lists the three configurations in paper order.
var AllCases = []Case{CaseA, CaseB, CaseC}

// String returns "A", "B" or "C".
func (c Case) String() string {
	switch c {
	case CaseA:
		return "A"
	case CaseB:
		return "B"
	case CaseC:
		return "C"
	default:
		return fmt.Sprintf("Case(%d)", int(c))
	}
}

// Counts returns the (fast, slow) machine counts of the case, recovered
// from the paper's Table 4 header (DESIGN.md substitution D5).
func (c Case) Counts() (fast, slow int) {
	switch c {
	case CaseA:
		return 2, 2
	case CaseB:
		return 2, 1
	case CaseC:
		return 1, 2
	default:
		panic(fmt.Sprintf("grid: unknown case %d", int(c)))
	}
}

// Grid is an ordered set of machines. Machine 0 is the reference machine
// for the upper-bound calculation (§VI); fast machines come first, matching
// the paper's Table 3 layout (the reference is a fast machine in every
// case).
type Grid struct {
	Machines []Machine
}

// NewGrid builds a grid with the given fast and slow machine counts, fast
// machines first.
func NewGrid(fast, slow int) *Grid {
	g := &Grid{Machines: make([]Machine, 0, fast+slow)}
	for i := 0; i < fast; i++ {
		g.Machines = append(g.Machines, FastMachine())
	}
	for i := 0; i < slow; i++ {
		g.Machines = append(g.Machines, SlowMachine())
	}
	return g
}

// ForCase builds the grid for one of the Table 1 configurations.
func ForCase(c Case) *Grid {
	fast, slow := c.Counts()
	return NewGrid(fast, slow)
}

// M returns the number of machines |M|.
func (g *Grid) M() int { return len(g.Machines) }

// TSE returns the total system energy Σ B(j) (§IV).
func (g *Grid) TSE() float64 {
	total := 0.0
	for _, m := range g.Machines {
		total += m.Battery
	}
	return total
}

// MinBandwidth returns the lowest bandwidth in the grid; the SLRH
// feasibility check charges worst-case child communication at this rate
// (§IV).
func (g *Grid) MinBandwidth() float64 {
	if len(g.Machines) == 0 {
		return 0
	}
	min := g.Machines[0].Bandwidth
	for _, m := range g.Machines[1:] {
		if m.Bandwidth < min {
			min = m.Bandwidth
		}
	}
	return min
}

// CMT returns the time in seconds to transmit one bit from machine i to
// machine j: 1/min(BW(i), BW(j)) (§III). Transfers between a machine and
// itself take zero time (assumption (a): no cost for same-machine
// transfers).
func (g *Grid) CMT(i, j int) float64 {
	if i == j {
		return 0
	}
	bw := math.Min(g.Machines[i].Bandwidth, g.Machines[j].Bandwidth)
	return 1 / bw
}

// CommTime returns the seconds needed to move `bits` of data from machine
// i to machine j.
func (g *Grid) CommTime(bits float64, i, j int) float64 {
	return bits * g.CMT(i, j)
}

// WorstCommTime returns the seconds needed to move `bits` from machine i
// to the lowest-bandwidth machine in the grid — the conservative estimate
// used by the SLRH feasibility check when children are not yet mapped.
func (g *Grid) WorstCommTime(bits float64, i int) float64 {
	bw := math.Min(g.Machines[i].Bandwidth, g.MinBandwidth())
	return bits / bw
}

// EnergyLedger tracks remaining battery per machine during schedule
// construction. The paper's assumptions (§III a): energy is consumed only
// while computing (at E(j)) and while transmitting (at C(j)); idle and
// receiving are free.
type EnergyLedger struct {
	remaining []float64
	// Consumed memoization: the full-grid sum is recomputed only when a
	// Charge or Refund has intervened (version-counter invalidation).
	// The cached value comes from the same summation, so memoization
	// never changes the arithmetic.
	version    uint64
	sumVersion uint64 // version the cached sum was computed at; valid when > 0
	sumValue   float64
}

// NewEnergyLedger returns a ledger with every machine at full battery.
func NewEnergyLedger(g *Grid) *EnergyLedger {
	rem := make([]float64, g.M())
	for j, m := range g.Machines {
		rem[j] = m.Battery
	}
	return &EnergyLedger{remaining: rem}
}

// Reset returns every machine of g to full battery in place, reusing the
// ledger's backing (the arena path re-runs schedules on one ledger). The
// grid may differ from the one the ledger was built for.
func (l *EnergyLedger) Reset(g *Grid) {
	if cap(l.remaining) < g.M() {
		l.remaining = make([]float64, g.M())
	}
	l.remaining = l.remaining[:g.M()]
	for j, m := range g.Machines {
		l.remaining[j] = m.Battery
	}
	l.version++
	l.sumVersion = 0
}

// Remaining returns the energy left on machine j.
func (l *EnergyLedger) Remaining(j int) float64 { return l.remaining[j] }

// Consumed returns the total energy consumed across all machines relative
// to the given grid's full batteries (TEC in the paper's objective).
func (l *EnergyLedger) Consumed(g *Grid) float64 {
	if l.sumVersion == l.version+1 {
		return l.sumValue
	}
	total := 0.0
	for j, m := range g.Machines {
		total += m.Battery - l.remaining[j]
	}
	l.sumValue = total
	l.sumVersion = l.version + 1
	return total
}

// Charge deducts amount from machine j. It returns an error (leaving the
// ledger unchanged) if the charge would drive the battery negative beyond
// a small floating-point tolerance.
func (l *EnergyLedger) Charge(j int, amount float64) error {
	if amount < 0 {
		return fmt.Errorf("grid: negative charge %v on machine %d", amount, j)
	}
	const tol = 1e-9
	if l.remaining[j]-amount < -tol {
		return fmt.Errorf("grid: machine %d energy exhausted (remaining %.6g, need %.6g)",
			j, l.remaining[j], amount)
	}
	l.remaining[j] -= amount
	if l.remaining[j] < 0 {
		l.remaining[j] = 0
	}
	l.version++
	return nil
}

// Refund returns amount to machine j (used when a tentative booking is
// rolled back).
func (l *EnergyLedger) Refund(j int, amount float64) {
	if amount < 0 {
		panic("grid: negative refund")
	}
	l.remaining[j] += amount
	l.version++
}
