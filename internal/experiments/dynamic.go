package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"merchandiser/internal/apps"
	"merchandiser/internal/core"
	"merchandiser/internal/policyreg"
	"merchandiser/internal/task"
)

// This file holds the epoch-lifecycle evaluation cell, outside the
// paper's 5-app matrix (AppNames is a published order and stays
// untouched): the PhaseShift re-planning study — a workload whose task
// behavior changes mid-run, where the offline plan goes stale.

// phaseShiftApp builds the dynamic-phase workload at the configured
// scale. Unlike the matrix apps this one is cheap at both scales — the
// full size just runs more instances of a larger gather blowup.
func phaseShiftApp(cfg Config) (task.App, error) {
	c := apps.PhaseShiftConfig{Seed: cfg.Seed + 10}
	if cfg.Quick {
		c = apps.PhaseShiftConfig{
			Tasks: 6, StreamElems: 128 << 10, GatherElems: 256 << 10,
			Instances: 4, ShiftInstance: 2, Rep: 4, Seed: cfg.Seed + 10,
		}
	}
	return apps.NewPhaseShift(c)
}

// ReplanRow is one PhaseShift cell: the policy's re-plan mode and what
// it achieved.
type ReplanRow struct {
	Mode string `json:"mode"`
	// TotalTime is the end-to-end PhaseShift time (sum of instance
	// makespans), the study's figure of merit.
	TotalTime float64 `json:"total_seconds"`
	// PostShift is the summed makespan of the instances at and after the
	// shift — where a static plan is stale and re-planning can win.
	PostShift float64 `json:"post_shift_seconds"`
	// Replans counts residual plans actually applied across the run.
	Replans int `json:"replans"`
	// Epochs counts epoch boundaries observed.
	Epochs int `json:"epochs"`
	// MaxDrift is the largest relative predicted-vs-observed makespan
	// drift any epoch measured.
	MaxDrift float64 `json:"max_drift"`
	// MovedPages sums the page moves of applied residual plans.
	MovedPages uint64 `json:"moved_pages"`
}

// replanModes is the study's comparison set: the paper's plan-once
// behavior against drift-triggered re-planning.
func replanModes(cfg Config) []core.ReplanConfig {
	base := cfg.Replan // inherit the epoch length
	rows := make([]core.ReplanConfig, 2)
	for i, m := range []core.ReplanMode{core.ReplanOff, core.ReplanDrift} {
		rc := base
		rc.Mode = m
		rows[i] = rc
	}
	return rows
}

// replanCell runs PhaseShift under Merchandiser with one re-plan
// configuration and returns its summary row. Each cell builds its own
// app instance (apps carry per-run object state) with the same seed, so
// cells are comparable and safe to run concurrently.
func replanCell(ctx context.Context, art *Artifacts, cfg Config, rc core.ReplanConfig) (*ReplanRow, error) {
	app, err := phaseShiftApp(cfg)
	if err != nil {
		return nil, err
	}
	pol, err := policyreg.Build("Merchandiser", policyreg.Params{
		Spec: art.Spec, Perf: art.Perf, Seed: cfg.Seed, Replan: rc,
	})
	if err != nil {
		return nil, err
	}
	res, err := task.Run(ctx, app, art.Spec, pol, task.Options{StepSec: cfg.step(), IntervalSec: 0.05})
	if err != nil {
		return nil, fmt.Errorf("experiments: PhaseShift replan=%s: %w", rc.Mode, err)
	}
	row := &ReplanRow{Mode: rc.Mode.String(), TotalTime: res.TotalTime}
	shift := 2 // PhaseShiftConfig default ShiftInstance at both scales
	for i, inst := range res.Instances {
		if i >= shift {
			row.PostShift += inst.Makespan
		}
	}
	if m, ok := pol.(*core.Merchandiser); ok {
		row.Replans = m.Replans
		row.Epochs = len(m.EpochReports)
		for _, er := range m.EpochReports {
			if er.Drift > row.MaxDrift {
				row.MaxDrift = er.Drift
			}
			if er.Replanned {
				row.MovedPages += er.MovedPages
			}
		}
	}
	return row, nil
}

// ReplanStudy runs the PhaseShift workload under Merchandiser with
// re-planning off and drift-triggered, and reports the makespan
// recovery. Cells run concurrently up to cfg.Workers; results
// are identical for any worker count (each cell is seeded and isolated,
// and re-planning is driven by simulated-time ticks, never wall clock).
func ReplanStudy(ctx context.Context, w io.Writer, art *Artifacts, cfg Config) ([]ReplanRow, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	modes := replanModes(cfg)
	rows := make([]*ReplanRow, len(modes))
	errs := make([]error, len(modes))
	slots := make(chan struct{}, cfg.workers())
	var wg sync.WaitGroup
	for i, rc := range modes {
		wg.Add(1)
		go func(i int, rc core.ReplanConfig) {
			defer wg.Done()
			select {
			case slots <- struct{}{}:
				defer func() { <-slots }()
			case <-ctx.Done():
				return
			}
			rows[i], errs[i] = replanCell(ctx, art, cfg, rc)
		}(i, rc)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("experiments: replan study canceled: %w", err)
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	out := make([]ReplanRow, len(rows))
	base := rows[0].TotalTime // mode "off" is always first
	if w != nil {
		fprintf(w, "Re-planning study — PhaseShift (stream→random shift mid-run):\n")
		fprintf(w, "  %-9s %12s %12s %8s %8s %9s %11s %8s\n",
			"mode", "total (s)", "post-shift", "replans", "epochs", "maxdrift", "moved pages", "speedup")
	}
	for i, r := range rows {
		out[i] = *r
		if w != nil {
			sp := 0.0
			if r.TotalTime > 0 {
				sp = base / r.TotalTime
			}
			fprintf(w, "  %-9s %12.3f %12.3f %8d %8d %9.2f %11d %7.2fx\n",
				r.Mode, r.TotalTime, r.PostShift, r.Replans, r.Epochs, r.MaxDrift, r.MovedPages, sp)
		}
	}
	if w != nil {
		fprintf(w, "\n")
	}
	return out, nil
}
