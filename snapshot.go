package merchandiser

import (
	"context"
	"io"

	"merchandiser/internal/merr"
	"merchandiser/internal/ml"
	"merchandiser/internal/model"
	"merchandiser/internal/store"
)

// SystemMeta is a snapshot's training provenance: the seed and level the
// system was trained with, the corpus sample count, and per-feature
// statistics of the training matrix. See internal/store.TrainMeta.
type SystemMeta = store.TrainMeta

// FeatureStats summarizes the training feature matrix (per-feature mean
// and range); it travels inside SystemMeta.
type FeatureStats = store.FeatureStats

// SaveFormat names a checkpoint's model encoding; SaveBinary is the
// only one.
//
// Deprecated: SaveFile always writes the binary format.
type SaveFormat string

// SaveBinary is the binary slot-section format SaveFile writes.
//
// Deprecated: SaveFile always writes the binary format.
const SaveBinary SaveFormat = "binary"

// RestoreOption tunes Restore. Options re-attach the runtime knobs that
// snapshots deliberately exclude; none of them change predictions.
type RestoreOption func(*restoreOptions)

type restoreOptions struct {
	workers  int
	observer *Observer
}

// WithObserver wires the restored system's model to record prediction
// counts and timers into reg — the same metrics a freshly-trained system
// records when constructed with an observed GBRConfig. Fit metrics stay
// zero: restoring never trains.
func WithObserver(reg *Observer) RestoreOption {
	return func(o *restoreOptions) { o.observer = reg }
}

// WithWorkers bounds the restored model's batch-prediction concurrency
// (0 = NumCPU). Predictions are identical for any value.
func WithWorkers(n int) RestoreOption {
	return func(o *restoreOptions) { o.workers = n }
}

// snapshotArtifact builds the snapshot container: the model as binary
// slot sections, everything else in the system section.
func (s *System) snapshotArtifact() (*store.Artifact, error) {
	a := &store.Artifact{Tool: "merchandiser"}
	st := &store.SystemState{
		Spec:      s.Spec,
		TrainedR2: s.TrainedR2,
		Train:     s.Meta,
	}
	if s.Perf != nil && s.Perf.Corr != nil {
		fm, err := ml.DumpFlat(s.Perf.Corr.Model)
		if err != nil {
			return nil, err
		}
		if err := a.SetModelFlat(fm); err != nil {
			return nil, err
		}
		st.Events = append([]string(nil), s.Perf.Corr.Events...)
	}
	if err := a.SetSystem(st); err != nil {
		return nil, err
	}
	return a, nil
}

// Snapshot writes the system as a versioned artifact: platform spec,
// trained correlation function, held-out R² and training provenance,
// behind a manifest with per-section checksums. The model persists as
// its compiled node table in binary slot sections, so Restore ingests
// it with no re-compile. The output is a pure function of the system's
// contents — snapshotting the same system twice yields identical bytes
// — and Restore rebuilds a System that predicts bit-for-bit identically
// without any retraining.
func (s *System) Snapshot(w io.Writer) error {
	a, err := s.snapshotArtifact()
	if err != nil {
		return err
	}
	return a.Encode(w)
}

// SaveFile snapshots the system to path atomically (write-then-rename);
// readers never observe a partial artifact.
func (s *System) SaveFile(path string) error {
	a, err := s.snapshotArtifact()
	if err != nil {
		return err
	}
	return store.WriteFile(path, a)
}

// SaveFileFormat is SaveFile for callers that still name the format;
// any format other than SaveBinary is rejected.
//
// Deprecated: use SaveFile.
func (s *System) SaveFileFormat(path string, format SaveFormat) error {
	if format != SaveBinary {
		return merr.Errorf(merr.ErrBadSpec, "merchandiser: save format %q is gone; checkpoints are binary only", format)
	}
	return s.SaveFile(path)
}

// Restore reads a Snapshot artifact and rebuilds the System it
// describes. The restored system serves predictions immediately — no
// corpus generation, no model fitting (the obs fit counter of an
// attached observer stays at zero) — and its Compare and planning
// outputs are byte-identical to the system that wrote the snapshot.
// Invalid input fails with an error satisfying
// errors.Is(err, ErrBadArtifact).
func Restore(ctx context.Context, r io.Reader, opts ...RestoreOption) (*System, error) {
	if err := merr.FromContext(ctx, "merchandiser: restore canceled"); err != nil {
		return nil, err
	}
	a, err := store.Decode(r)
	if err != nil {
		return nil, err
	}
	return restoreSystem(a, opts)
}

// RestoreFile restores a system from an artifact file.
func RestoreFile(ctx context.Context, path string, opts ...RestoreOption) (*System, error) {
	if err := merr.FromContext(ctx, "merchandiser: restore canceled"); err != nil {
		return nil, err
	}
	a, err := store.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return restoreSystem(a, opts)
}

func restoreSystem(a *store.Artifact, opts []RestoreOption) (*System, error) {
	var o restoreOptions
	for _, opt := range opts {
		opt(&o)
	}
	st, err := a.System()
	if err != nil {
		return nil, err
	}
	s := &System{
		Spec:      st.Spec,
		Perf:      &model.PerfModel{},
		TrainedR2: st.TrainedR2,
		Meta:      st.Train,
	}
	if a.HasBinaryModel() {
		fm, err := a.ModelFlat()
		if err != nil {
			return nil, err
		}
		m, err := ml.LoadFlat(fm, ml.LoadOptions{Workers: o.workers, Obs: o.observer})
		if err != nil {
			return nil, err
		}
		// The model reads the vector AppendVector builds: the events in
		// order, then r_dram. A split past it would index out of range on
		// the first prediction; an importance vector of another width
		// means the model was fitted over other events.
		for _, nd := range fm.Nodes {
			if int(nd.Feature) > len(st.Events) {
				return nil, merr.Errorf(merr.ErrBadArtifact, "merchandiser: model splits on feature %d, but %d events give %d features", nd.Feature, len(st.Events), len(st.Events)+1)
			}
		}
		if n := len(fm.Meta.Importances); n != 0 && n != len(st.Events)+1 {
			return nil, merr.Errorf(merr.ErrBadArtifact, "merchandiser: model has %d feature importances, but %d events give %d features", n, len(st.Events), len(st.Events)+1)
		}
		s.Perf.Corr = &model.CorrelationFunc{Model: m, Events: st.Events}
	}
	return s, nil
}
