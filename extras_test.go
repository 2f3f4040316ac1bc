package adhocgrid_test

import (
	"bytes"
	"strings"
	"testing"

	"adhocgrid"
)

func TestPublicGanttAndExport(t *testing.T) {
	inst := exampleInstance(t, 64, 25, adhocgrid.CaseB)
	res, err := adhocgrid.RunSLRH(inst, adhocgrid.SLRH1, adhocgrid.NewWeights(0.5, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	g := adhocgrid.Gantt(res.State, 60)
	if !strings.Contains(g, "Gantt") || !strings.Contains(g, "m0") {
		t.Fatalf("gantt output wrong:\n%s", g)
	}
	exp := adhocgrid.ExportSchedule(res.State)
	if exp.Case != "B" || len(exp.Assignments) != res.Metrics.Mapped {
		t.Fatalf("export wrong: %+v", exp.Metrics)
	}
}

func TestPublicRecorderAndCSV(t *testing.T) {
	inst := exampleInstance(t, 48, 27, adhocgrid.CaseA)
	rec := adhocgrid.NewRecorder()
	cfg := adhocgrid.DefaultConfig(adhocgrid.SLRH1, adhocgrid.NewWeights(0.5, 0.3))
	cfg.Observer = rec.Observe
	res, err := adhocgrid.RunSLRHConfig(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() != res.Timesteps {
		t.Fatalf("recorded %d of %d timesteps", rec.Len(), res.Timesteps)
	}
	var buf bytes.Buffer
	if err := adhocgrid.WriteAssignmentsCSV(&buf, res.State); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != res.Metrics.Mapped+1 {
		t.Fatalf("CSV lines = %d", lines)
	}
}

func TestPublicLoseMachine(t *testing.T) {
	inst := exampleInstance(t, 64, 31, adhocgrid.CaseA)
	res, err := adhocgrid.RunSLRH(inst, adhocgrid.SLRH1, adhocgrid.NewWeights(0.5, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	requeued, err := adhocgrid.LoseMachine(res.State, 0, res.State.AETCycles/2)
	if err != nil {
		t.Fatal(err)
	}
	if len(requeued) == 0 {
		t.Fatal("mid-run loss requeued nothing")
	}
	if v := adhocgrid.Verify(res.State); len(v) != 0 {
		t.Fatalf("violations after loss: %v", v)
	}
}

func TestPublicTauCycles(t *testing.T) {
	if adhocgrid.TauCycles(1024) != 340750 {
		t.Fatalf("TauCycles(1024) = %d", adhocgrid.TauCycles(1024))
	}
	if adhocgrid.SecondaryFraction != 0.1 {
		t.Fatal("secondary fraction wrong")
	}
}

func TestPublicCriticalChain(t *testing.T) {
	inst := exampleInstance(t, 64, 33, adhocgrid.CaseA)
	res, err := adhocgrid.RunSLRH(inst, adhocgrid.SLRH1, adhocgrid.NewWeights(0.5, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	chain := adhocgrid.CriticalChain(res.State)
	if len(chain) == 0 {
		t.Fatal("empty chain")
	}
	if got := adhocgrid.CycleSeconds * float64(chain[len(chain)-1].End); got != res.Metrics.AETSeconds {
		t.Fatalf("chain end %v != AET %v", got, res.Metrics.AETSeconds)
	}
}

func TestPublicStudyNoise(t *testing.T) {
	inst := exampleInstance(t, 64, 37, adhocgrid.CaseA)
	res, err := adhocgrid.RunSLRH(inst, adhocgrid.SLRH1, adhocgrid.NewWeights(0.5, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	study, err := adhocgrid.StudyNoise(res.State, adhocgrid.DefaultNoise(), 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if study.Trials != 10 {
		t.Fatalf("study = %+v", study)
	}
}

func TestPublicGenerateSuite(t *testing.T) {
	suite, err := adhocgrid.GenerateSuite(64, 2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	scn, err := suite.Scenario(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := scn.Instantiate(adhocgrid.CaseC)
	if err != nil {
		t.Fatal(err)
	}
	res, err := adhocgrid.RunSLRH(inst, adhocgrid.SLRH1, adhocgrid.NewWeights(0.5, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	if v := adhocgrid.Verify(res.State); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}
