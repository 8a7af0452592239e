package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"merchandiser/internal/ml"
	"merchandiser/internal/pmc"
)

// evalDigest flattens an evaluation matrix to its deterministic result
// fields (per-cell totals, matrices, migration stats), skipping live
// policy state like the Merchandiser instance.
func evalDigest(e *Eval) map[string]string {
	out := map[string]string{}
	for app, pols := range e.Runs {
		for pol, run := range pols {
			out[app+"/"+pol] = fmt.Sprintf("%v|%v|%v|%d|%d|%d",
				run.TotalTime, run.ACV, run.TaskMatrix, run.Migrated, run.MigMax, run.MigMin)
		}
	}
	return out
}

// modelDump is the model-equality witness: the trained model's flat
// form — node records, roots, depths and metadata.
func modelDump(t *testing.T, art *Artifacts) *ml.FlatModel {
	t.Helper()
	gbr, ok := art.Perf.Corr.Model.(*ml.GradientBoosted)
	if !ok {
		t.Fatalf("correlation model is %T, want *ml.GradientBoosted", art.Perf.Corr.Model)
	}
	d, err := ml.DumpFlat(gbr)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestRunPipelineIdentity: the pipelined schedule produces byte-identical
// results for any worker count, and matches the sequential
// Prepare → RunEvaluation run — overlap changes only scheduling.
func TestRunPipelineIdentity(t *testing.T) {
	run := func(workers int) *PipelineResult {
		cfg := quickCfg()
		cfg.Workers = workers
		res, err := RunPipeline(context.Background(), cfg, PipelineOptions{CV: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	p1 := run(1)
	p8 := run(8)

	if !reflect.DeepEqual(modelDump(t, p1.Artifacts), modelDump(t, p8.Artifacts)) {
		t.Fatal("pipelined model differs between Workers=1 and Workers=8")
	}
	if p1.Artifacts.TestR2 != p8.Artifacts.TestR2 {
		t.Fatalf("TestR2 differs: %v vs %v", p1.Artifacts.TestR2, p8.Artifacts.TestR2)
	}
	if !reflect.DeepEqual(p1.Artifacts.Samples, p8.Artifacts.Samples) {
		t.Fatal("training corpus differs between Workers=1 and Workers=8")
	}
	if !reflect.DeepEqual(evalDigest(p1.Eval), evalDigest(p8.Eval)) {
		t.Fatal("evaluation matrix differs between Workers=1 and Workers=8")
	}
	if !reflect.DeepEqual(p1.CV, p8.CV) {
		t.Fatalf("CV feature search differs:\n%v\nvs\n%v", p1.CV, p8.CV)
	}

	// Sequential reference: train, then evaluate.
	cfg := quickCfg()
	cfg.Workers = 8
	art, err := Prepare(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := RunEvaluation(context.Background(), art, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(modelDump(t, art), modelDump(t, p8.Artifacts)) {
		t.Fatal("pipelined model differs from the barriered Prepare model")
	}
	if art.TestR2 != p8.Artifacts.TestR2 {
		t.Fatalf("TestR2: barriered %v, pipelined %v", art.TestR2, p8.Artifacts.TestR2)
	}
	if !reflect.DeepEqual(evalDigest(eval), evalDigest(p8.Eval)) {
		t.Fatal("pipelined evaluation differs from the barriered one")
	}

	// CV output shape: nested prefixes of the event list down to 2.
	wantSizes := 0
	for k := len(pmc.SelectedEvents); k >= 2; k -= 2 {
		wantSizes++
	}
	if len(p1.CV) != wantSizes {
		t.Fatalf("CV scored %d subset sizes, want %d", len(p1.CV), wantSizes)
	}
	if p1.CV[0].Events != len(pmc.SelectedEvents) {
		t.Fatalf("first CV candidate has %d events, want all %d", p1.CV[0].Events, len(pmc.SelectedEvents))
	}
	for _, cv := range p1.CV {
		if len(cv.Names) != cv.Events {
			t.Fatalf("CV candidate reports %d events but %d names", cv.Events, len(cv.Names))
		}
	}
}

// TestRunPipelineCancelNoLeak: cancelling mid-pipeline unwinds corpus
// producers, the fitter, CV and the evaluation lanes without leaking
// goroutines.
func TestRunPipelineCancelNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	cfg := quickCfg()
	cfg.Workers = 8
	_, err := RunPipeline(ctx, cfg, PipelineOptions{CV: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunPipeline under cancellation = %v, want context.Canceled", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after cancellation", before, after)
	}
	cancel()
}
