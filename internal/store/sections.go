package store

import (
	"math"

	"merchandiser/internal/hm"
	"merchandiser/internal/placement"
)

// Well-known section names. An artifact may carry any subset; a System
// checkpoint always carries SectionSystem.
const (
	// SectionSystem holds a SystemState: platform spec, the correlation
	// function's event list and training provenance. The function itself
	// travels in the binary model sections (SectionModelNodes,
	// SectionModelTrees).
	SectionSystem = "system"
	// SectionPlan holds a PlanRecord: one Algorithm 1 / MinMakespanPlan
	// output.
	SectionPlan = "plan"
)

// FeatureStats summarizes the training matrix the correlation function
// was fitted on: per-feature mean and range over the corpus samples.
// They travel with the checkpoint so a serving deployment can sanity-
// check incoming workload characteristics against the training
// distribution.
type FeatureStats struct {
	Names []string  `json:"names"`
	Count int       `json:"count"`
	Mean  []float64 `json:"mean"`
	Min   []float64 `json:"min"`
	Max   []float64 `json:"max"`
}

// StatsFromMatrix computes FeatureStats over a feature matrix whose
// columns are named by names (corpus.Matrix layout). Empty input yields
// nil.
func StatsFromMatrix(names []string, X [][]float64) *FeatureStats {
	if len(X) == 0 || len(names) == 0 {
		return nil
	}
	d := len(names)
	s := &FeatureStats{
		Names: append([]string(nil), names...),
		Count: len(X),
		Mean:  make([]float64, d),
		Min:   make([]float64, d),
		Max:   make([]float64, d),
	}
	for j := 0; j < d; j++ {
		s.Min[j] = math.Inf(1)
		s.Max[j] = math.Inf(-1)
	}
	for _, row := range X {
		for j := 0; j < d && j < len(row); j++ {
			v := row[j]
			s.Mean[j] += v
			if v < s.Min[j] {
				s.Min[j] = v
			}
			if v > s.Max[j] {
				s.Max[j] = v
			}
		}
	}
	for j := range s.Mean {
		s.Mean[j] /= float64(len(X))
	}
	return s
}

func (s *FeatureStats) validate() error {
	if s == nil {
		return nil
	}
	if len(s.Names) == 0 || s.Count <= 0 {
		return badf("feature stats need names and a positive count")
	}
	d := len(s.Names)
	if len(s.Mean) != d || len(s.Min) != d || len(s.Max) != d {
		return badf("feature stats arrays disagree on dimension")
	}
	for j := 0; j < d; j++ {
		if s.Names[j] == "" {
			return badf("feature stats name %d is empty", j)
		}
		for _, v := range []float64{s.Mean[j], s.Min[j], s.Max[j]} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return badf("feature stats value for %q is non-finite", s.Names[j])
			}
		}
		if s.Min[j] > s.Max[j] {
			return badf("feature stats range for %q is inverted", s.Names[j])
		}
	}
	return nil
}

// TrainMeta is a checkpoint's training provenance: what produced the
// model it carries. All fields are informational except Stats, which is
// validated when present.
type TrainMeta struct {
	// Seed is the TrainConfig seed the corpus and split were derived from.
	Seed int64 `json:"seed,omitempty"`
	// Level names the training level ("quick", "full", "none").
	Level string `json:"level,omitempty"`
	// Samples is the corpus sample count the model was fitted on.
	Samples int `json:"samples,omitempty"`
	// Stats summarizes the training feature matrix.
	Stats *FeatureStats `json:"stats,omitempty"`
}

// SystemState is the persistable form of a trained System apart from
// its model, which the binary model sections carry. Events is empty for
// an untrained (TrainNone) system, whose Equation 2 degrades to linear
// interpolation exactly as it does in-process.
type SystemState struct {
	Spec      hm.SystemSpec `json:"spec"`
	Events    []string      `json:"events,omitempty"`
	TrainedR2 float64       `json:"trained_r2,omitempty"`
	Train     TrainMeta     `json:"train"`
}

// Validate checks the state's internal consistency without building
// models. Violations classify as ErrBadArtifact (and additionally as
// ErrBadSpec when the platform spec itself is invalid).
func (s *SystemState) Validate() error {
	if s == nil {
		return badf("nil system state")
	}
	if err := s.Spec.Validate(); err != nil {
		return badWrap("system spec", err)
	}
	if math.IsNaN(s.TrainedR2) || math.IsInf(s.TrainedR2, 0) {
		return badf("trained R² is non-finite")
	}
	for i, ev := range s.Events {
		if ev == "" {
			return badf("event name %d is empty", i)
		}
	}
	return s.Train.Stats.validate()
}

// checkSystem validates st as this artifact's system section: a model
// in the binary sections needs the event list its features are named
// by.
func (a *Artifact) checkSystem(st *SystemState) error {
	if err := st.Validate(); err != nil {
		return err
	}
	if a.HasBinaryModel() && len(st.Events) == 0 {
		return badf("system has a model but no event list")
	}
	return nil
}

// SetSystem validates st and stores it as the system section. Store
// the model sections first: the check covers them.
func (a *Artifact) SetSystem(st *SystemState) error {
	if err := a.checkSystem(st); err != nil {
		return err
	}
	return a.SetJSON(SectionSystem, st)
}

// System decodes and validates the system section.
func (a *Artifact) System() (*SystemState, error) {
	st := &SystemState{}
	if err := a.GetJSON(SectionSystem, st); err != nil {
		return nil, err
	}
	if err := a.checkSystem(st); err != nil {
		return nil, err
	}
	return st, nil
}

// PlanRecord is a persistable Algorithm 1 / MinMakespanPlan output with
// the task names it applies to — what a serving daemon logs per batch.
// ModelVersion and ModelSHA256 identify the artifact that planned the
// batch, so a mixed-version fleet's audit logs are diagnosable.
type PlanRecord struct {
	Tasks        []string  `json:"tasks"`
	DRAMAccesses []float64 `json:"dram_accesses"`
	GoalRatio    []float64 `json:"goal_ratio"`
	DRAMPages    []uint64  `json:"dram_pages"`
	Predicted    []float64 `json:"predicted"`
	Rounds       int       `json:"rounds"`
	Makespan     float64   `json:"makespan"`
	ModelVersion string    `json:"model_version,omitempty"`
	ModelSHA256  string    `json:"model_sha256,omitempty"`
}

// PlanRecordFrom pairs a plan with the task names it was computed for.
func PlanRecordFrom(tasks []placement.TaskInput, p *placement.Plan) *PlanRecord {
	r := &PlanRecord{
		Tasks:        make([]string, len(tasks)),
		DRAMAccesses: append([]float64(nil), p.DRAMAccesses...),
		GoalRatio:    append([]float64(nil), p.GoalRatio...),
		DRAMPages:    append([]uint64(nil), p.DRAMPages...),
		Predicted:    append([]float64(nil), p.Predicted...),
		Rounds:       p.Rounds,
		Makespan:     p.PredictedMakespan(),
	}
	for i, t := range tasks {
		r.Tasks[i] = t.Name
	}
	return r
}

func (r *PlanRecord) validate() error {
	if r == nil {
		return badf("nil plan record")
	}
	n := len(r.Tasks)
	if n == 0 {
		return badf("plan record has no tasks")
	}
	if len(r.DRAMAccesses) != n || len(r.GoalRatio) != n || len(r.DRAMPages) != n || len(r.Predicted) != n {
		return badf("plan record arrays disagree on task count")
	}
	for i := 0; i < n; i++ {
		if r.Tasks[i] == "" {
			return badf("plan record task %d is unnamed", i)
		}
		for _, v := range []float64{r.DRAMAccesses[i], r.GoalRatio[i], r.Predicted[i]} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return badf("plan record task %q has non-finite or negative value", r.Tasks[i])
			}
		}
	}
	if math.IsNaN(r.Makespan) || math.IsInf(r.Makespan, 0) || r.Makespan < 0 {
		return badf("plan record makespan is invalid")
	}
	return nil
}

// SetPlan validates r and stores it as the plan section.
func (a *Artifact) SetPlan(r *PlanRecord) error {
	if err := r.validate(); err != nil {
		return err
	}
	return a.SetJSON(SectionPlan, r)
}

// Plan decodes and validates the plan section.
func (a *Artifact) Plan() (*PlanRecord, error) {
	r := &PlanRecord{}
	if err := a.GetJSON(SectionPlan, r); err != nil {
		return nil, err
	}
	if err := r.validate(); err != nil {
		return nil, err
	}
	return r, nil
}
