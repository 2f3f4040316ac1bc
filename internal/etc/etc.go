// Package etc generates and manipulates estimated-time-to-compute (ETC)
// matrices for the heterogeneous ad hoc grid workload (paper §III).
//
// ETC(i,j) is the estimated execution time in seconds of subtask i's
// primary version on machine j. Matrices are produced with the
// coefficient-of-variation-based (CVB) Gamma-distribution method of Ali et
// al. [AlS00]: each subtask draws a Gamma-distributed baseline time, and
// each (subtask, machine) cell draws a Gamma variate around that baseline,
// scaled by the machine's class multiplier. Slow machines run each subtask
// roughly ten times slower than fast machines, with the exact ratio
// randomized per subtask exactly as the paper specifies.
//
// The paper quotes "a mean estimated execution time for a single subtask
// of 131 seconds"; we interpret this as the ensemble mean across the Case A
// machine mix (2 fast + 2 slow), the only reading consistent with the
// paper's reported fraction of the upper bound (DESIGN.md substitution D2).
package etc

import (
	"encoding/json"
	"fmt"

	"adhocgrid/internal/grid"
	"adhocgrid/internal/rng"
)

// Params controls CVB ETC generation.
type Params struct {
	N           int     // number of subtasks
	MeanETC     float64 // ensemble mean execution time, seconds (paper: 131)
	TaskCV      float64 // coefficient of variation across subtasks
	MachCV      float64 // coefficient of variation across machines for one subtask
	HeteroRatio float64 // mean slow/fast execution-time ratio (paper: ~10)
	RatioJitter float64 // per-subtask ratio drawn uniformly from HeteroRatio*(1±RatioJitter)
}

// DefaultParams returns generation parameters calibrated so that the
// minimum-ratio statistics of the paper's Table 3 are reproduced at
// |T|=1024 (fast/fast MR ≈ 0.28, slow/fast MR ≈ 1.6–1.75).
func DefaultParams(n int) Params {
	return Params{
		N:           n,
		MeanETC:     131,
		TaskCV:      0.5,
		MachCV:      0.3,
		HeteroRatio: 10,
		RatioJitter: 0.5,
	}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	switch {
	case p.N <= 0:
		return fmt.Errorf("etc: N must be positive, got %d", p.N)
	case p.MeanETC <= 0:
		return fmt.Errorf("etc: MeanETC must be positive, got %v", p.MeanETC)
	case p.TaskCV <= 0 || p.MachCV <= 0:
		return fmt.Errorf("etc: CVs must be positive, got task %v mach %v", p.TaskCV, p.MachCV)
	case p.HeteroRatio < 1:
		return fmt.Errorf("etc: HeteroRatio must be >= 1, got %v", p.HeteroRatio)
	case p.RatioJitter < 0 || p.RatioJitter >= 1:
		return fmt.Errorf("etc: RatioJitter %v out of [0,1)", p.RatioJitter)
	}
	return nil
}

// Matrix is an ETC matrix over the full (Case A) machine set. Cases B and
// C view subsets of its columns, so the same matrix serves all three
// configurations, as in the paper.
type Matrix struct {
	N       int          // subtasks
	Classes []grid.Class // class of each column
	Times   [][]float64  // Times[i][j] = ETC(i,j), seconds
}

// Generate builds a CVB ETC matrix for the machines of g.
func Generate(p Params, g *grid.Grid, r *rng.Rand) (*Matrix, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if g.M() == 0 {
		return nil, fmt.Errorf("etc: empty grid")
	}
	// Solve for the fast-class mean so the ensemble mean across this grid's
	// machine mix equals MeanETC.
	sumMult := 0.0
	for _, m := range g.Machines {
		if m.Class == grid.Fast {
			sumMult += 1
		} else {
			sumMult += p.HeteroRatio
		}
	}
	fastMean := p.MeanETC * float64(g.M()) / sumMult

	mat := &Matrix{
		N:       p.N,
		Classes: make([]grid.Class, g.M()),
		Times:   make([][]float64, p.N),
	}
	for j, m := range g.Machines {
		mat.Classes[j] = m.Class
	}
	for i := 0; i < p.N; i++ {
		base := r.GammaMeanCV(fastMean, p.TaskCV)
		// Per-subtask randomized slow/fast ratio (§III).
		ratio := p.HeteroRatio
		if p.RatioJitter > 0 {
			ratio *= r.UniformRange(1-p.RatioJitter, 1+p.RatioJitter)
		}
		row := make([]float64, g.M())
		for j, m := range g.Machines {
			mean := base
			if m.Class == grid.Slow {
				mean = base * ratio
			}
			row[j] = r.GammaMeanCV(mean, p.MachCV)
		}
		mat.Times[i] = row
	}
	return mat, nil
}

// At returns ETC(i,j) in seconds.
func (m *Matrix) At(i, j int) float64 { return m.Times[i][j] }

// M returns the number of machine columns.
func (m *Matrix) M() int {
	if m.N == 0 {
		return len(m.Classes)
	}
	return len(m.Times[0])
}

// View returns the sub-matrix containing only the given columns, in order.
// Views copy the data so they are independent of the parent.
func (m *Matrix) View(cols []int) (*Matrix, error) {
	v := &Matrix{
		N:       m.N,
		Classes: make([]grid.Class, len(cols)),
		Times:   make([][]float64, m.N),
	}
	for vi, c := range cols {
		if c < 0 || c >= m.M() {
			return nil, fmt.Errorf("etc: view column %d out of range [0,%d)", c, m.M())
		}
		v.Classes[vi] = m.Classes[c]
	}
	for i := 0; i < m.N; i++ {
		row := make([]float64, len(cols))
		for vi, c := range cols {
			row[vi] = m.Times[i][c]
		}
		v.Times[i] = row
	}
	return v, nil
}

// CaseColumns maps a Table 1 configuration to the columns of the full
// (Case A) matrix it uses: Case B removes the last slow machine, Case C
// removes the second fast machine, mirroring the paper's "loss" of one
// machine from the baseline.
func CaseColumns(c grid.Case) []int {
	switch c {
	case grid.CaseA:
		return []int{0, 1, 2, 3}
	case grid.CaseB:
		return []int{0, 1, 2}
	case grid.CaseC:
		return []int{0, 2, 3}
	default:
		panic(fmt.Sprintf("etc: unknown case %v", c))
	}
}

// ForCase returns the view of m for a Table 1 configuration. m must be a
// full Case A matrix (4 columns).
func (m *Matrix) ForCase(c grid.Case) (*Matrix, error) {
	if m.M() != 4 {
		return nil, fmt.Errorf("etc: ForCase requires a 4-column Case A matrix, have %d", m.M())
	}
	return m.View(CaseColumns(c))
}

// Mean returns the mean of all cells.
func (m *Matrix) Mean() float64 {
	if m.N == 0 || m.M() == 0 {
		return 0
	}
	sum := 0.0
	for _, row := range m.Times {
		for _, v := range row {
			sum += v
		}
	}
	return sum / float64(m.N*m.M())
}

// Validate checks structural invariants: rectangular, positive cells,
// class labels for each column.
func (m *Matrix) Validate() error {
	if len(m.Times) != m.N {
		return fmt.Errorf("etc: %d rows, want %d", len(m.Times), m.N)
	}
	for i, row := range m.Times {
		if len(row) != len(m.Classes) {
			return fmt.Errorf("etc: row %d has %d cols, want %d", i, len(row), len(m.Classes))
		}
		for j, v := range row {
			if v <= 0 {
				return fmt.Errorf("etc: non-positive ETC(%d,%d) = %v", i, j, v)
			}
		}
	}
	return nil
}

// jsonMatrix is the serialized form of a Matrix.
type jsonMatrix struct {
	N       int         `json:"n"`
	Classes []int       `json:"classes"`
	Times   [][]float64 `json:"times"`
}

// MarshalJSON encodes the matrix.
func (m *Matrix) MarshalJSON() ([]byte, error) {
	jm := jsonMatrix{N: m.N, Classes: make([]int, len(m.Classes)), Times: m.Times}
	for i, c := range m.Classes {
		jm.Classes[i] = int(c)
	}
	return json.Marshal(jm)
}

// UnmarshalJSON decodes and validates a matrix.
func (m *Matrix) UnmarshalJSON(data []byte) error {
	var jm jsonMatrix
	if err := json.Unmarshal(data, &jm); err != nil {
		return err
	}
	nm := Matrix{N: jm.N, Classes: make([]grid.Class, len(jm.Classes)), Times: jm.Times}
	for i, c := range jm.Classes {
		nm.Classes[i] = grid.Class(c)
	}
	if err := nm.Validate(); err != nil {
		return err
	}
	*m = nm
	return nil
}
