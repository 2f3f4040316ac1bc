// Package trace records the "historical record of all critical
// parameters" the paper's SLRH stores during a run (§IV): per-timestep
// snapshots of mapping progress, energy, AET and the active objective
// weights, plus the final assignment table, with CSV and JSON export for
// later analysis.
package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"adhocgrid/internal/grid"
	"adhocgrid/internal/sched"
)

// Snapshot is the per-timestep record.
type Snapshot struct {
	Cycle     int64   `json:"cycle"`
	Mapped    int     `json:"mapped"`
	T100      int     `json:"t100"`
	TEC       float64 `json:"tec"`
	AET       float64 `json:"aet_seconds"`
	Alpha     float64 `json:"alpha"`
	Beta      float64 `json:"beta"`
	Gamma     float64 `json:"gamma"`
	Objective float64 `json:"objective"`
	// MachineEnergy is the remaining battery per machine (JSON export
	// only; the CSV format keeps fixed columns).
	MachineEnergy []float64 `json:"machine_energy,omitempty"`
}

// Recorder accumulates one snapshot per observed timestep; its Observe
// method matches the SLRH Config.Observer hook.
type Recorder struct {
	snapshots []Snapshot
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Observe records the state at a timestep. It is safe to pass as the SLRH
// observer; it never mutates the state.
func (r *Recorder) Observe(now int64, st *sched.State) {
	m := st.Metrics()
	w := st.Obj.Weights
	energy := make([]float64, st.Inst.Grid.M())
	for j := range energy {
		energy[j] = st.Ledger.Remaining(j)
	}
	r.snapshots = append(r.snapshots, Snapshot{
		Cycle:         now,
		Mapped:        m.Mapped,
		T100:          m.T100,
		TEC:           m.TEC,
		AET:           m.AETSeconds,
		Alpha:         w.Alpha,
		Beta:          w.Beta,
		Gamma:         w.Gamma,
		Objective:     m.Objective,
		MachineEnergy: energy,
	})
}

// Len returns the number of stored snapshots.
func (r *Recorder) Len() int { return len(r.snapshots) }

// WriteCSV emits the snapshots as CSV with a header row.
func (r *Recorder) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"cycle", "mapped", "t100", "tec", "aet_seconds", "alpha", "beta", "gamma", "objective"}); err != nil {
		return err
	}
	for _, s := range r.snapshots {
		rec := []string{
			strconv.FormatInt(s.Cycle, 10),
			strconv.Itoa(s.Mapped),
			strconv.Itoa(s.T100),
			strconv.FormatFloat(s.TEC, 'g', -1, 64),
			strconv.FormatFloat(s.AET, 'g', -1, 64),
			strconv.FormatFloat(s.Alpha, 'g', -1, 64),
			strconv.FormatFloat(s.Beta, 'g', -1, 64),
			strconv.FormatFloat(s.Gamma, 'g', -1, 64),
			strconv.FormatFloat(s.Objective, 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Document is the serializable record of one run: the per-timestep
// snapshots plus the final assignment table. It is the payload served by
// the scheduling service's /v1/runs/{id}/trace endpoint and a convenient
// single-file export for offline analysis. Both slices marshal as []
// (never null) so consumers can index without nil checks.
type Document struct {
	Snapshots   []Snapshot      `json:"snapshots"`
	Assignments []AssignmentRow `json:"assignments"`
}

// NewDocument captures a run into a Document. rec may be nil (no
// per-timestep observer was attached); st must be the final state.
func NewDocument(rec *Recorder, st *sched.State) Document {
	doc := Document{Snapshots: []Snapshot{}, Assignments: []AssignmentRow{}}
	if rec != nil {
		doc.Snapshots = append(doc.Snapshots, rec.snapshots...)
	}
	doc.Assignments = append(doc.Assignments, AssignmentTable(st)...)
	return doc
}

// WriteJSON emits the document as a single JSON object. Nil slices are
// normalized to empty ones (the receiver is a value; the caller's
// document is untouched).
func (d Document) WriteJSON(w io.Writer) error {
	if d.Snapshots == nil {
		d.Snapshots = []Snapshot{}
	}
	if d.Assignments == nil {
		d.Assignments = []AssignmentRow{}
	}
	return json.NewEncoder(w).Encode(d)
}

// AssignmentRow is one line of the final mapping table.
type AssignmentRow struct {
	Subtask      int     `json:"subtask"`
	Machine      int     `json:"machine"`
	Version      string  `json:"version"`
	StartSeconds float64 `json:"start_seconds"`
	EndSeconds   float64 `json:"end_seconds"`
	ExecEnergy   float64 `json:"exec_energy"`
	Transfers    int     `json:"incoming_transfers"`
}

// AssignmentTable extracts the final mapping of a schedule, one row per
// mapped subtask in id order.
func AssignmentTable(st *sched.State) []AssignmentRow {
	var rows []AssignmentRow
	for i := 0; i < st.N(); i++ {
		a := st.Assignments[i]
		if a == nil {
			continue
		}
		rows = append(rows, AssignmentRow{
			Subtask:      i,
			Machine:      a.Machine,
			Version:      a.Version.String(),
			StartSeconds: grid.CyclesToSeconds(a.Start),
			EndSeconds:   grid.CyclesToSeconds(a.End),
			ExecEnergy:   a.ExecEnergy,
			Transfers:    len(a.Transfers),
		})
	}
	return rows
}

// WriteAssignmentsCSV emits the final mapping as CSV.
func WriteAssignmentsCSV(w io.Writer, st *sched.State) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"subtask", "machine", "version", "start_seconds", "end_seconds", "exec_energy", "incoming_transfers"}); err != nil {
		return err
	}
	for _, row := range AssignmentTable(st) {
		if err := cw.Write([]string{
			strconv.Itoa(row.Subtask),
			strconv.Itoa(row.Machine),
			row.Version,
			fmt.Sprintf("%.1f", row.StartSeconds),
			fmt.Sprintf("%.1f", row.EndSeconds),
			strconv.FormatFloat(row.ExecEnergy, 'g', -1, 64),
			strconv.Itoa(row.Transfers),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
