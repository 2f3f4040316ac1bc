package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
)

// capacityReferenceSizes are the |T| points every capacity report
// quotes sustainable rates at.
var capacityReferenceSizes = []int{256, 1024, 2048}

// SustainRate is one "this instance sustains X req/s of |T|=n" line.
type SustainRate struct {
	N           int     `json:"n"`
	CostSeconds float64 `json:"cost_seconds"`
	ReqPerSec   float64 `json:"req_per_sec"`
}

// ModelReport is one heuristic's fitted cost model plus the sustainable
// throughput it implies at the reference sizes.
type ModelReport struct {
	Heuristic          string        `json:"heuristic"`
	AlphaSeconds       float64       `json:"alpha_seconds"`
	BetaSecondsPerTask float64       `json:"beta_seconds_per_task"`
	Observations       float64       `json:"observations"`
	Sustainable        []SustainRate `json:"sustainable,omitempty"`
}

// CapacityAnswer is the focused reply to a ?heuristic=&n=&class= query:
// the planner's answer to "can this instance sustain that request
// stream inside that class's target?".
type CapacityAnswer struct {
	Heuristic   string  `json:"heuristic"`
	N           int     `json:"n"`
	Class       string  `json:"class"`
	CostSeconds float64 `json:"cost_seconds"`
	ReqPerSec   float64 `json:"req_per_sec"`
	// MeetsTarget reports whether one such request admitted to an idle
	// instance completes inside the class target (always true for
	// targetless classes).
	MeetsTarget bool `json:"meets_target"`
	// MaxTargetN is the largest |T| whose predicted cost alone fits the
	// class target (0 when the model is cold or the class has no target).
	MaxTargetN int `json:"max_target_n,omitempty"`
}

// CapacityReport is the body of GET /v1/capacity and of `slrhd
// -capacity`: the instance's current fitted cost models and what load
// they say it sustains. Values derive from wall-time observations, so —
// like /metrics and unlike /v1/map bodies — the report is observational
// and changes as the model learns.
type CapacityReport struct {
	Workers        int             `json:"workers"`
	QueueSlots     int             `json:"queue_slots"`
	BacklogSeconds float64         `json:"backlog_seconds"`
	Classes        []Class         `json:"classes"`
	Models         []ModelReport   `json:"models"`
	Answer         *CapacityAnswer `json:"answer,omitempty"`
}

// Capacity assembles the instance's capacity report. A zero query
// yields the fleet-wide view; a query with Heuristic+N set adds the
// focused Answer.
func (s *Server) Capacity(q CapacityQuery) (*CapacityReport, error) {
	rep := &CapacityReport{
		Workers:        s.cfg.Workers,
		QueueSlots:     s.cfg.QueueSize,
		BacklogSeconds: s.admission.Backlog(),
		Classes:        s.cfg.Classes,
	}
	for _, h := range heuristicNames {
		alpha, beta, w := s.model.Coefficients(h)
		mr := ModelReport{Heuristic: h, AlphaSeconds: alpha, BetaSecondsPerTask: beta, Observations: w}
		if w > 0 {
			for _, n := range capacityReferenceSizes {
				if s.cfg.MaxN > 0 && n > s.cfg.MaxN {
					continue
				}
				mr.Sustainable = append(mr.Sustainable, s.sustainAt(alpha, beta, n))
			}
		}
		rep.Models = append(rep.Models, mr)
	}
	if q.Heuristic != "" || q.N != 0 || q.Class != "" {
		ans, err := s.capacityAnswer(q)
		if err != nil {
			return nil, err
		}
		rep.Answer = ans
	}
	return rep, nil
}

// sustainAt converts a fitted line into a sustainable request rate at
// one size: workers concurrent runs each costing cost(n) seconds.
func (s *Server) sustainAt(alpha, beta float64, n int) SustainRate {
	cost := alpha + beta*float64(n)
	r := SustainRate{N: n, CostSeconds: cost}
	if cost > 0 {
		r.ReqPerSec = float64(s.cfg.Workers) / cost
	}
	return r
}

// CapacityQuery narrows a capacity report to one request shape.
type CapacityQuery struct {
	Heuristic string
	N         int
	Class     string
}

// capacityAnswer resolves the focused query. The heuristic is spelled
// as POST /v1/map spells it (trimmed, lowercased, empty selects slrh1),
// and the answer echoes the canonical name.
func (s *Server) capacityAnswer(q CapacityQuery) (*CapacityAnswer, error) {
	q.Heuristic = Request{Heuristic: q.Heuristic}.Canonical().Heuristic
	if heuristicIndex(q.Heuristic) == len(heuristicNames)-1 && q.Heuristic != heuristicNames[len(heuristicNames)-1] {
		return nil, fmt.Errorf("unknown heuristic %q", q.Heuristic)
	}
	if q.N == 0 {
		q.N = DefaultN
	}
	if q.N < 1 {
		return nil, fmt.Errorf("n must be positive, got %d", q.N)
	}
	cls, err := s.cfg.classFor(q.Class)
	if err != nil {
		return nil, err
	}
	alpha, beta, w := s.model.Coefficients(q.Heuristic)
	ans := &CapacityAnswer{Heuristic: q.Heuristic, N: q.N, Class: cls.Name}
	if w == 0 {
		// Cold model: admission is open, so the honest answer is "no
		// estimate yet" — costs and rates stay zero.
		ans.MeetsTarget = true
		return ans, nil
	}
	rate := s.sustainAt(alpha, beta, q.N)
	ans.CostSeconds, ans.ReqPerSec = rate.CostSeconds, rate.ReqPerSec
	ans.MeetsTarget = cls.TargetSeconds <= 0 || rate.CostSeconds <= cls.TargetSeconds
	if cls.TargetSeconds > 0 && beta > 0 && cls.TargetSeconds > alpha {
		ans.MaxTargetN = int(math.Floor((cls.TargetSeconds - alpha) / beta))
		if s.cfg.MaxN > 0 && ans.MaxTargetN > s.cfg.MaxN {
			ans.MaxTargetN = s.cfg.MaxN
		}
	}
	return ans, nil
}

// handleCapacity serves GET /v1/capacity[?heuristic=&n=&class=].
func (s *Server) handleCapacity(w http.ResponseWriter, r *http.Request) {
	var q CapacityQuery
	q.Heuristic = r.URL.Query().Get("heuristic")
	q.Class = r.URL.Query().Get("class")
	if raw := r.URL.Query().Get("n"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil {
			s.jsonError(w, http.StatusBadRequest, "bad n: "+err.Error())
			return
		}
		q.N = n
	}
	rep, err := s.Capacity(q)
	if err != nil {
		s.jsonError(w, http.StatusBadRequest, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		s.writeErrors.Inc()
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	s.write(w, append(b, '\n'))
}

// calibrationSizes are the probe sizes Calibrate runs per heuristic:
// two points pin the slope of each fitted line.
var calibrationSizes = []int{64, 192}

// Calibrate warms the cost model by executing small probe runs of every
// heuristic through the ordinary job path (so wall times flow through
// the same annotated report sites as live traffic). It backs `slrhd
// -capacity`, letting a fresh instance self-report before serving.
func (s *Server) Calibrate() error {
	for _, h := range heuristicNames {
		for _, n := range calibrationSizes {
			req := Request{N: n, Case: "A", Heuristic: h, Seed: 1, Alpha: 0.5, Beta: 0.3}
			if _, err := s.executeJob(req.Canonical(), 0); err != nil {
				return fmt.Errorf("calibrate %s |T|=%d: %w", h, n, err)
			}
		}
	}
	return nil
}
