package adhocgrid

import (
	"io"

	"adhocgrid/internal/greedy"
	"adhocgrid/internal/grid"
	"adhocgrid/internal/sched"
	"adhocgrid/internal/sim"
	"adhocgrid/internal/trace"
	"adhocgrid/internal/workload"
)

// GreedyResult reports an MCT or Min-Min run.
type GreedyResult = greedy.Result

// RunMCT executes the minimum-completion-time greedy static mapper — the
// "simple greedy static heuristic" the paper used to select τ (§III).
func RunMCT(inst *Instance) (*GreedyResult, error) { return greedy.MCT(inst) }

// RunMinMin executes the Ibarra-Kim Min-Min list scheduler [IbK77], the
// heuristic family the paper's Max-Max baseline derives from.
func RunMinMin(inst *Instance) (*GreedyResult, error) { return greedy.MinMin(inst) }

// CalibrateTau reproduces the paper's deadline-selection procedure: the
// MCT greedy's makespan on the scenario (deadline removed, with a 10%
// battery reservation for secondary fallbacks) times slack, in clock
// cycles.
func CalibrateTau(scn *Scenario, c Case, slack float64) (int64, error) {
	return greedy.CalibrateTau(scn, c, slack)
}

// Gantt renders a textual Gantt chart of a schedule: one execution row
// and one link row per machine across [0, max(AET, τ)].
func Gantt(s *Schedule, width int) string { return s.Gantt(width) }

// ScheduleExport is the serializable form of a schedule.
type ScheduleExport = sched.Export

// ExportSchedule captures a schedule's assignments and metrics for
// external analysis.
func ExportSchedule(s *Schedule) ScheduleExport { return s.Export() }

// Recorder collects per-timestep snapshots of an SLRH run; install its
// Observe method as Config.Observer and export with WriteCSV/WriteJSON.
type Recorder = trace.Recorder

// NewRecorder returns a recorder keeping every `every`-th snapshot.
func NewRecorder(every int) *Recorder { return trace.NewRecorder(every) }

// WriteAssignmentsCSV emits a schedule's final mapping as CSV.
func WriteAssignmentsCSV(w io.Writer, s *Schedule) error {
	return trace.WriteAssignmentsCSV(w, s)
}

// ExecStats summarizes an executed schedule: per-machine busy/link time
// and utilization.
type ExecStats = sim.ExecStats

// Execute replays a schedule's chronological event log through the
// event-driven consistency checker and returns utilization statistics.
func Execute(s *Schedule) (ExecStats, error) { return sim.Execute(s) }

// EventLog reconstructs the chronological event sequence of a schedule.
func EventLog(s *Schedule) []sim.Event { return sim.EventLog(s) }

// SimEvent is one entry of the replay event log.
type SimEvent = sim.Event

// TauCycles returns the paper's deadline scaled to an n-subtask
// application, in clock cycles.
func TauCycles(n int) int64 { return grid.TauCycles(n) }

// LoseMachine removes machine j from a schedule's grid at the given cycle,
// unwinding every assignment the loss invalidates; it returns the subtask
// ids that must be re-mapped. Prefer Config.Faults (a FaultLose event) for
// losses during an SLRH run; this entry point serves custom control loops.
func LoseMachine(s *Schedule, machine int, at int64) ([]int, error) {
	return s.LoseMachine(machine, at)
}

// SecondaryFraction is the paper's reduction factor for secondary
// versions: 10% of the primary's time, energy and output data.
const SecondaryFraction = workload.SecondaryFraction

// ChainLink is one step of a realized critical chain (see CriticalChain).
type ChainLink = sim.ChainLink

// CriticalChain explains a schedule's makespan: the chain of assignments,
// machine waits and data transfers that determined the application
// execution time, origin first.
func CriticalChain(s *Schedule) []ChainLink { return sim.CriticalChain(s) }

// NoiseModel parameterizes per-transfer link degradation (paper §I:
// links "prone to spurious failures and occasional noise").
type NoiseModel = sim.NoiseModel

// NoiseStudy reports a Monte-Carlo link-noise robustness study.
type NoiseStudy = sim.NoiseStudy

// Realization reports one noisy replay of a schedule.
type Realization = sim.Realization

// DefaultNoise returns a moderate link-noise model.
func DefaultNoise() NoiseModel { return sim.DefaultNoise() }

// StudyNoise replays a schedule `trials` times under the noise model and
// reports how often the realized makespan still meets the deadline.
func StudyNoise(s *Schedule, noise NoiseModel, trials int, seed uint64) (NoiseStudy, error) {
	return sim.StudyNoise(s, noise, trials, seed)
}
