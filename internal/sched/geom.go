package sched

import (
	"fmt"

	"adhocgrid/internal/grid"
	"adhocgrid/internal/workload"
)

// Candidate geometry: the placement-independent half of pricing.
//
// Pricing a candidate (i, j) splits cleanly in two. The *geometry* — which
// parents feed data from other machines, the size, duration and energy of
// each incoming transfer, the execution durations and energies of both
// versions, and the D3 energy-guard thresholds — depends only on static
// instance data and on the parents' assignments. The *placement* — where
// those transfers and the execution land on the link and execution
// timelines, and whether the energy ledgers still cover them — depends on
// the mutable schedule and the clock.
//
// Assignments are append-only within a shrink epoch (Commit never moves
// or removes one; only the unwinding in LoseMachine and FailSubtask does,
// and those bump State.ShrinkEpoch, as RejoinMachine does), so a
// candidate's geometry is immutable for the whole shrink epoch. The plan
// cache exploits this: it captures the geometry once and, when the clock
// advance forces a re-price, replays only the placement.
// PlanCandidateVersions itself is implemented as geometry + placement, so
// a replay is the same code path as fresh pricing minus the geometry fill
// — identical results by construction.

// TransferGeom describes one incoming off-machine transfer independently
// of link placement.
type TransferGeom struct {
	Parent    int     // sending subtask
	From      int     // machine the parent is mapped to
	ParentEnd int64   // parent's execution completion cycle
	Bits      float64 // item size transmitted
	Dur       int64   // nominal link occupancy in cycles
	DurSec    float64 // nominal link occupancy in seconds (pre-rounding)
	Energy    float64 // nominal sender-side communication energy
}

// CandidateGeom is the placement-independent pricing of one (subtask,
// machine) candidate, valid for the State's current shrink epoch.
type CandidateGeom struct {
	Arrival0   int64          // latest completion among same-machine parents
	Transfers  []TransferGeom // off-machine parents, in graph parent order
	ExecDur    [2]int64       // execution cycles per version
	ExecEnergy [2]float64     // execution energy per version
	GuardNeed  [2]float64     // D3 guard: exec energy + worst-case child comm
}

// FillCandidateGeom computes the geometry of candidate (i, j) into g,
// reusing g's storage. It fails only if a parent of i is unmapped.
func (s *State) FillCandidateGeom(i, j int, g *CandidateGeom) error {
	g.Arrival0 = 0
	g.Transfers = g.Transfers[:0]
	for _, p := range s.Inst.Scenario.Graph.Parents(i) {
		pa := s.Assignments[p]
		if pa == nil {
			return errParentUnmapped
		}
		if pa.Machine == j {
			// Same machine: data available when the parent completes,
			// at no time or energy cost (§III assumption (a)).
			if pa.End > g.Arrival0 {
				g.Arrival0 = pa.End
			}
			continue
		}
		k := s.Inst.ChildIndex(p, i)
		bits := s.Inst.OutBits(p, k, pa.Version)
		durSec := s.Inst.Grid.CommTime(bits, pa.Machine, j)
		g.Transfers = append(g.Transfers, TransferGeom{
			Parent: p, From: pa.Machine, ParentEnd: pa.End, Bits: bits,
			Dur: grid.SecondsToCycles(durSec), DurSec: durSec,
			Energy: s.Inst.Grid.Machines[pa.Machine].CommRate * durSec,
		})
	}
	for v := workload.Primary; v <= workload.Secondary; v++ {
		g.ExecDur[v] = s.Inst.ExecCycles(i, j, v)
		g.ExecEnergy[v] = s.Inst.ExecEnergy(i, j, v)
		g.GuardNeed[v] = g.ExecEnergy[v] + s.Inst.WorstChildCommEnergy(i, j, v)
	}
	return nil
}

// PlanVersionsFromGeom prices both versions of candidate (i, j) from a
// previously captured geometry. g must have been filled within the
// current shrink epoch; the result is then identical to
// PlanCandidateVersions(i, j, now). buf, when non-nil, names a reusable
// transfer buffer: the plans' shared transfer list is built in it and the
// (possibly grown) backing is written back through the pointer, so a
// caller that owns the buffer prices repeatedly without allocating. The
// buffer contents are only valid until the caller's next pricing into it.
func (s *State) PlanVersionsFromGeom(i, j int, now int64, g *CandidateGeom, buf *[]Transfer) (primary Plan, perr error, secondary Plan, serr error) {
	if err := s.planChecks(i, j); err != nil {
		return primary, err, secondary, err
	}
	return s.planVersionsFromGeom(i, j, now, g, buf)
}

// planVersionsFromGeom is the shared placement half of both
// PlanCandidateVersions and the cache's replay path.
func (s *State) planVersionsFromGeom(i, j int, now int64, g *CandidateGeom, buf *[]Transfer) (primary Plan, perr error, secondary Plan, serr error) {
	rem := s.Ledger.Remaining(j)
	priOK := rem >= g.GuardNeed[workload.Primary]
	secOK := rem >= g.GuardNeed[workload.Secondary]
	if !priOK {
		perr = errLacksEnergy
	}
	if !secOK {
		serr = errLacksEnergy
	}
	if !priOK && !secOK {
		return primary, perr, secondary, serr
	}
	arrival, transfers, err := s.placeIncoming(i, j, now, g, buf)
	if err != nil {
		return primary, err, secondary, err
	}
	if priOK {
		primary, perr = s.finishPlanDur(i, j, workload.Primary,
			g.ExecEnergy[workload.Primary], g.ExecDur[workload.Primary], arrival, transfers)
	}
	if secOK {
		secondary, serr = s.finishPlanDur(i, j, workload.Secondary,
			g.ExecEnergy[workload.Secondary], g.ExecDur[workload.Secondary], arrival, transfers)
	}
	return primary, perr, secondary, serr
}

// stretchComm returns the link occupancy and sender energy of a transfer
// with nominal duration nomDur cycles (durSec seconds pre-rounding) and
// nominal energy nomEnergy when it starts at cycle c. Outside every
// degradation window the integer-derived nominal values are returned
// untouched, so fault-free schedules are bit-identical with and without
// this hook; inside a window both stretch by 1/factor.
func (s *State) stretchComm(nomDur int64, durSec, nomEnergy float64, c int64) (int64, float64) {
	f := s.LinkFactorAt(c)
	if f >= 1 {
		return nomDur, nomEnergy
	}
	return grid.SecondsToCycles(durSec / f), nomEnergy / f
}

// tentBooking records one tentative link booking for rollback.
type tentBooking struct {
	tl         *Timeline
	start, dur int64
}

// machineCost accumulates tentative sender-side energy per machine.
type machineCost struct {
	machine int
	cost    float64
}

// placeIncoming packs the candidate's incoming transfers onto machine j's
// in-link and the senders' out-links, never booking before cycle `now`.
// Tentative bookings let later parents see earlier siblings' link usage
// and are rolled back before returning. It returns the data-arrival cycle
// and the transfer records, built in *buf when buf is non-nil (the grown
// backing is written back through the pointer even on the error paths,
// so the owner never loses capacity). The returned slice is nil exactly
// when the geometry has no off-machine transfers, buffer or not.
func (s *State) placeIncoming(i, j int, now int64, g *CandidateGeom, buf *[]Transfer) (int64, []Transfer, error) {
	booked := s.bookScratch[:0]
	defer func() {
		for k := len(booked) - 1; k >= 0; k-- {
			b := booked[k]
			if err := b.tl.Unbook(b.start, b.dur); err != nil {
				panic("sched: tentative unbook failed: " + err.Error())
			}
		}
		s.bookScratch = booked[:0]
	}()

	arrival := now
	if g.Arrival0 > arrival {
		arrival = g.Arrival0
	}
	var transfers []Transfer
	if len(g.Transfers) > 0 {
		if buf != nil {
			transfers = (*buf)[:0]
		} else {
			transfers = make([]Transfer, 0, len(g.Transfers))
		}
	}
	costs := s.costScratch[:0]
	defer func() { s.costScratch = costs[:0] }()
	for idx := range g.Transfers {
		tg := &g.Transfers[idx]
		if !s.Alive(tg.From) {
			if buf != nil && transfers != nil {
				*buf = transfers
			}
			return 0, nil, errParentStranded
		}

		// Find the earliest slot free on BOTH the sender's out-link and
		// the receiver's in-link, at or after the parent's completion and
		// the current clock. The occupancy depends on the start cycle when
		// a link-degradation window is active, so the search iterates to a
		// fixpoint: the duration is recomputed whenever the candidate start
		// moves, and a slot is accepted only when the fit and the duration
		// sampled at it agree.
		start := tg.ParentEnd
		if start < now {
			start = now
		}
		send, recv := s.SendTL[tg.From], s.RecvTL[j]
		dur, energy := s.stretchComm(tg.Dur, tg.DurSec, tg.Energy, start)
		for {
			s1 := send.EarliestFit(start, dur)
			s2 := recv.EarliestFit(s1, dur)
			if s2 != s1 {
				start = s2
				dur, energy = s.stretchComm(tg.Dur, tg.DurSec, tg.Energy, start)
				continue
			}
			d2, e2 := s.stretchComm(tg.Dur, tg.DurSec, tg.Energy, s1)
			if d2 == dur {
				start, energy = s1, e2
				break
			}
			start, dur, energy = s1, d2, e2
		}

		// The sending machine must still have energy for this transfer on
		// top of its earlier siblings'. The cost is the placed (possibly
		// stretched) energy, so the check follows the slot search.
		cum := energy
		found := false
		for ci := range costs {
			if costs[ci].machine == tg.From {
				costs[ci].cost += energy
				cum = costs[ci].cost
				found = true
				break
			}
		}
		if !found {
			costs = append(costs, machineCost{tg.From, energy})
		}
		if s.Ledger.Remaining(tg.From) < cum {
			if buf != nil && transfers != nil {
				*buf = transfers
			}
			return 0, nil, errSenderEnergy
		}

		if dur > 0 {
			if err := send.Book(start, dur); err != nil {
				if buf != nil && transfers != nil {
					*buf = transfers
				}
				return 0, nil, fmt.Errorf("sched: internal send booking: %w", err)
			}
			booked = append(booked, tentBooking{send, start, dur})
			if err := recv.Book(start, dur); err != nil {
				if buf != nil && transfers != nil {
					*buf = transfers
				}
				return 0, nil, fmt.Errorf("sched: internal recv booking: %w", err)
			}
			booked = append(booked, tentBooking{recv, start, dur})
		}
		end := start + dur
		if end > arrival {
			arrival = end
		}
		transfers = append(transfers, Transfer{
			Parent: tg.Parent, Child: i, From: tg.From, To: j,
			Start: start, End: end, Bits: tg.Bits, Energy: energy,
		})
	}
	if buf != nil && transfers != nil {
		*buf = transfers
	}
	return arrival, transfers, nil
}
