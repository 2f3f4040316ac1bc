package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"adhocgrid/internal/core"
	"adhocgrid/internal/grid"
	"adhocgrid/internal/rng"
	"adhocgrid/internal/sched"
	"adhocgrid/internal/workload"
)

func runWithRecorder(t *testing.T) (*Recorder, *core.Result) {
	t.Helper()
	p := workload.DefaultParams(48)
	p.EnergyScale = 1
	s, err := workload.Generate(p, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := s.Instantiate(grid.CaseA)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	cfg := core.DefaultConfig(core.SLRH1, sched.NewWeights(0.4, 0.2))
	cfg.Observer = rec.Observe
	res, err := core.Run(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rec, res
}

func TestRecorderCapturesTimesteps(t *testing.T) {
	rec, res := runWithRecorder(t)
	if rec.Len() != res.Timesteps {
		t.Fatalf("recorded %d snapshots, %d timesteps", rec.Len(), res.Timesteps)
	}
	snaps := rec.snapshots
	last := snaps[len(snaps)-1]
	if last.Mapped != res.Metrics.Mapped || last.T100 != res.Metrics.T100 {
		t.Fatalf("final snapshot %+v disagrees with metrics %+v", last, res.Metrics)
	}
	// Progress is monotone.
	for k := 1; k < len(snaps); k++ {
		if snaps[k].Mapped < snaps[k-1].Mapped || snaps[k].Cycle <= snaps[k-1].Cycle {
			t.Fatalf("non-monotone snapshots at %d", k)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	rec, _ := runWithRecorder(t)
	var buf bytes.Buffer
	if err := rec.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != rec.Len()+1 {
		t.Fatalf("CSV has %d lines, want %d", len(lines), rec.Len()+1)
	}
	if !strings.HasPrefix(lines[0], "cycle,mapped,t100") {
		t.Fatalf("bad header: %q", lines[0])
	}
}

func TestAssignmentTable(t *testing.T) {
	_, res := runWithRecorder(t)
	rows := AssignmentTable(res.State)
	if len(rows) != res.Metrics.Mapped {
		t.Fatalf("table has %d rows, %d mapped", len(rows), res.Metrics.Mapped)
	}
	for k, row := range rows {
		if k > 0 && rows[k-1].Subtask >= row.Subtask {
			t.Fatal("rows not in subtask order")
		}
		if row.EndSeconds <= row.StartSeconds {
			t.Fatalf("empty execution interval in row %+v", row)
		}
		if row.Version != "primary" && row.Version != "secondary" {
			t.Fatalf("bad version %q", row.Version)
		}
	}
}

func TestWriteAssignmentsCSV(t *testing.T) {
	_, res := runWithRecorder(t)
	var buf bytes.Buffer
	if err := WriteAssignmentsCSV(&buf, res.State); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != res.Metrics.Mapped+1 {
		t.Fatalf("CSV has %d lines, want %d", len(lines), res.Metrics.Mapped+1)
	}
}

func TestDocumentRoundTrip(t *testing.T) {
	rec, res := runWithRecorder(t)
	doc := NewDocument(rec, res.State)
	if len(doc.Snapshots) != rec.Len() || len(doc.Assignments) != res.Metrics.Mapped {
		t.Fatalf("document has %d snapshots / %d assignments, want %d / %d",
			len(doc.Snapshots), len(doc.Assignments), rec.Len(), res.Metrics.Mapped)
	}
	var buf bytes.Buffer
	if err := doc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Document
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Snapshots) != len(doc.Snapshots) || len(back.Assignments) != len(doc.Assignments) {
		t.Fatalf("round trip lost rows: %d/%d vs %d/%d",
			len(back.Snapshots), len(back.Assignments), len(doc.Snapshots), len(doc.Assignments))
	}
}

func TestDocumentNilRecorderMarshalsEmptyArrays(t *testing.T) {
	_, res := runWithRecorder(t)
	var buf bytes.Buffer
	doc := NewDocument(nil, res.State)
	doc.Assignments = nil // even a zeroed field must serialize as []
	doc.Snapshots = nil
	if err := doc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got := strings.TrimSpace(buf.String())
	if got != `{"snapshots":[],"assignments":[]}` {
		t.Fatalf("nil slices must marshal as empty arrays, got %s", got)
	}
}

func TestSnapshotMachineEnergyMonotone(t *testing.T) {
	rec, res := runWithRecorder(t)
	snaps := rec.snapshots
	m := res.State.Inst.Grid.M()
	for k, s := range snaps {
		if len(s.MachineEnergy) != m {
			t.Fatalf("snapshot %d has %d energy entries", k, len(s.MachineEnergy))
		}
		if k == 0 {
			continue
		}
		for j := 0; j < m; j++ {
			if snaps[k].MachineEnergy[j] > snaps[k-1].MachineEnergy[j]+1e-9 {
				t.Fatalf("machine %d energy increased between snapshots %d and %d", j, k-1, k)
			}
		}
	}
}
