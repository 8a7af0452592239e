// Command merchbench regenerates the paper's tables and figures on the
// simulated heterogeneous-memory platform.
//
// Usage:
//
//	merchbench -exp all                  # everything (slow)
//	merchbench -exp fig4                 # one experiment
//	merchbench -exp fig4 -quick          # reduced scale
//	merchbench -exp all -json out.json   # machine-readable summary too
//	merchbench -exp fig4 -metrics m.json # deterministic metrics dump
//	merchbench -exp fig4 -trace t.json   # chrome-trace event log
//	merchbench -save sys.artifact        # checkpoint the trained system (binary model sections)
//	merchbench -load sys.artifact        # serve from a checkpoint, no retraining
//	merchbench -exp replan -quick        # PhaseShift epoch re-planning study
//	merchbench -replan drift -exp fig4   # run Merchandiser cells with drift re-planning
//	merchbench -exp none -quick -save sys.artifact -registry /var/merch -publish v1 -promote   # train, publish, promote
//	merchbench -exp fig4 -out results/   # relative outputs land under results/
//	merchbench -exp fig4 -cpuprofile cpu.pb.gz   # CPU profile of the run
//	merchbench -exp fig4 -memprofile mem.pb.gz   # post-run heap profile
//
// Experiments: table1 table2 table3 table4 fig3 fig4 fig5 fig6 fig7 alpha
// ablations cxl replan, as a comma-separated list. "all" runs every one
// but cxl and replan, which run only when named; "none" runs nothing
// (train and -save only). Any other name is an error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"

	"merchandiser"
	"merchandiser/internal/core"
	"merchandiser/internal/corpus"
	"merchandiser/internal/experiments"
	"merchandiser/internal/obs"
	"merchandiser/internal/pmc"
	"merchandiser/internal/policyreg"
	"merchandiser/internal/registry"
	"merchandiser/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "merchbench:", err)
		os.Exit(1)
	}
}

// run is merchbench with its command line and standard output as
// arguments. Every failure is returned rather than exiting, so the
// deferred profile writers run on the error path too.
func run(args []string, stdout io.Writer) (err error) {
	flags := flag.NewFlagSet("merchbench", flag.ExitOnError)
	exp := flags.String("exp", "all", "comma-separated experiments to run: table1,table2,table3,table4,fig3,fig4,fig5,fig6,fig7,alpha,ablations,cxl,replan, 'all' (every one but cxl and replan, which run only when named) or 'none'")
	quick := flags.Bool("quick", false, "reduced scale (smaller apps and corpus)")
	seed := flags.Int64("seed", 1, "random seed")
	workers := flags.Int("workers", 0, "concurrency of training and evaluation (0 = NumCPU); results are identical for any value")
	jsonPath := flags.String("json", "", "also write a machine-readable summary to this file")
	metricsPath := flags.String("metrics", "", "write the deterministic metrics dump (per-cell registry snapshots) to this file")
	tracePath := flags.String("trace", "", "write a chrome-trace event log of the evaluation to this file")
	policies := flags.String("policy", "", "comma-separated policy names to evaluate (default: all registered; see -policy list)")
	cvFlag := flags.Bool("cv", false, "also run the k-fold feature-subset search (pipelined runs overlap it with evaluation)")
	outDir := flags.String("out", "", "directory for output files; relative -json/-metrics/-trace/-save paths are placed under it instead of the CWD")
	savePath := flags.String("save", "", "after training, checkpoint the system (spec + correlation function) to this artifact file")
	loadPath := flags.String("load", "", "skip training and restore the system from this artifact file")
	replanMode := flags.String("replan", "", "Merchandiser re-planning mode for every cell: off or drift (default off — byte-identical to plan-once)")
	replanEpoch := flags.Int("replan-epoch", 0, "epoch length in policy ticks for -replan (0 = default)")
	registryRoot := flags.String("registry", "", "model registry root for -publish/-promote (see cmd/merchserved -registry)")
	publish := flags.String("publish", "", "with -save and -registry: publish the saved artifact into the registry under this version name")
	promote := flags.Bool("promote", false, "with -publish: promote the published version to CURRENT (replicas pick it up on SIGHUP or POST /reloadz)")
	cpuProfile := flags.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flags.String("memprofile", "", "write a heap profile (taken after the run, post-GC) to this file")
	_ = flags.Parse(args) // ExitOnError: a bad flag exits 2 and -h exits 0 inside Parse

	want, err := parseExperiments(*exp)
	if err != nil {
		return err
	}
	all := want["all"]
	if *savePath != "" && *loadPath != "" {
		return fmt.Errorf("-save and -load are mutually exclusive")
	}
	if *publish != "" && (*savePath == "" || *registryRoot == "") {
		return fmt.Errorf("-publish needs -save (the artifact to publish) and -registry (where to publish it)")
	}
	if *promote && *publish == "" {
		return fmt.Errorf("-promote needs -publish")
	}
	if *loadPath != "" && (all || want["table3"] || want["fig7"] || want["ablations"] || want["cxl"] || *cvFlag) {
		return fmt.Errorf("a -load artifact carries the trained model but not the training corpus; table3, fig7, ablations, cxl and -cv retrain — run them without -load (use -exp like fig4,table4)")
	}
	outPath := func(p string) string {
		if p == "" || *outDir == "" || filepath.IsAbs(p) {
			return p
		}
		return filepath.Join(*outDir, p)
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}
	*jsonPath = outPath(*jsonPath)
	*metricsPath = outPath(*metricsPath)
	*tracePath = outPath(*tracePath)
	*savePath = outPath(*savePath)
	*cpuProfile = outPath(*cpuProfile)
	*memProfile = outPath(*memProfile)

	if *cpuProfile != "" {
		f, cerr := os.Create(*cpuProfile) // not err: the deferred Join must set run's result
		if cerr != nil {
			return cerr
		}
		if cerr = pprof.StartCPUProfile(f); cerr != nil {
			return errors.Join(cerr, f.Close())
		}
		defer func() {
			pprof.StopCPUProfile()
			err = errors.Join(err, f.Close())
		}()
	}
	if *memProfile != "" {
		defer func() {
			err = errors.Join(err, writeFile(*memProfile, func(w io.Writer) error {
				runtime.GC() // settle the heap so the profile reflects live objects
				return pprof.WriteHeapProfile(w)
			}))
		}()
	}

	// Ctrl-C / SIGTERM cancels the run: workers stop claiming cells,
	// in-flight simulations abort at the next engine tick, and merchbench
	// exits with the cancellation error instead of hanging.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The pipeline registry times training and evaluation (volatile wall
	// timers, read back for the summary's timing block) and is the
	// deterministic "pipeline" section of -metrics.
	reg := obs.New()
	cfg := experiments.Config{
		Quick: *quick, Seed: *seed, Workers: *workers,
		Obs: reg, Trace: *tracePath != "",
	}
	rmode, err := core.ParseReplanMode(*replanMode)
	if err != nil {
		return err
	}
	cfg.Replan = core.ReplanConfig{Mode: rmode, EpochTicks: *replanEpoch}

	if *policies != "" {
		if *policies == "list" {
			fmt.Fprintln(stdout, strings.Join(policyreg.Names(), "\n"))
			return nil
		}
		for _, name := range strings.Split(*policies, ",") {
			name = strings.TrimSpace(name)
			if _, err := policyreg.Lookup(name); err != nil {
				return err
			}
			cfg.Policies = append(cfg.Policies, name)
		}
	}
	w := stdout

	needsArtifacts := all || want["table3"] || want["table4"] || want["fig4"] ||
		want["fig5"] || want["fig6"] || want["fig7"] || want["alpha"] || want["ablations"] ||
		want["replan"] || *cvFlag
	needsEval := all || want["table4"] || want["fig4"] || want["fig5"] ||
		want["fig6"] || want["alpha"] || *jsonPath != "" || *metricsPath != "" || *tracePath != ""

	// Training + evaluation run pace-car pipelined: corpus simulation
	// streams into model fitting, and evaluation cells launch as their
	// model dependency resolves. Runs that need a model but no
	// evaluation train through Prepare (the same training stage).
	pipelined := *loadPath == "" && needsEval

	var art *experiments.Artifacts
	var eval *experiments.Eval
	var cvResults []experiments.CVResult
	switch {
	case *loadPath != "":
		sys, err := merchandiser.RestoreFile(ctx, *loadPath)
		if err != nil {
			return err
		}
		art = &experiments.Artifacts{Spec: sys.Spec, Perf: sys.Perf, TestR2: sys.TrainedR2, SampleCount: sys.Meta.Samples}
		fmt.Fprintf(w, "offline: restored from %s (level=%s, %d samples, held-out R²=%.3f) — no retraining\n\n",
			*loadPath, sys.Meta.Level, sys.Meta.Samples, sys.TrainedR2)
	case pipelined:
		res, err := experiments.RunPipeline(ctx, cfg, experiments.PipelineOptions{CV: *cvFlag})
		if err != nil {
			return err
		}
		art, eval, cvResults = res.Artifacts, res.Eval, res.CV
		fmt.Fprintf(w, "offline: correlation function trained on %d samples, held-out R²=%.3f (%.1fs)\n",
			len(art.Samples), art.TestR2, reg.WallTimer("pipeline.train_seconds").Seconds())
		train := reg.WallTimer("pipeline.train_seconds").Seconds()
		evalS := reg.WallTimer("pipeline.eval_seconds").Seconds()
		e2e := reg.WallTimer("pipeline.e2e_seconds").Seconds()
		overlap := 0.0
		if e2e > 0 {
			overlap = (train + evalS) / e2e
		}
		fmt.Fprintf(w, "evaluation: 5 applications x policies executed (%.1fs)\n", evalS)
		fmt.Fprintf(w, "pipeline: end-to-end %.1fs, overlap ratio %.2fx (train %.1fs + eval %.1fs)\n\n",
			e2e, overlap, train, evalS)
	case needsArtifacts || *savePath != "" || *jsonPath != "" || *metricsPath != "" || *tracePath != "":
		art, err = experiments.Prepare(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "offline: correlation function trained on %d samples, held-out R²=%.3f (%.1fs)\n\n",
			len(art.Samples), art.TestR2, reg.WallTimer("pipeline.train_seconds").Seconds())
	}
	if *savePath != "" {
		if err := saveArtifacts(*savePath, art, cfg); err != nil {
			return err
		}
		fmt.Fprintf(w, "checkpoint written to %s\n\n", *savePath)
		if *publish != "" {
			reg, err := registry.Open(*registryRoot)
			if err != nil {
				return err
			}
			ent, err := reg.Publish(*publish, *savePath)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "published %s to %s (sha256 %s…)\n", ent.Version, *registryRoot, ent.SHA256[:12])
			if *promote {
				if err := reg.Promote(*publish); err != nil {
					return err
				}
				fmt.Fprintf(w, "promoted %s to CURRENT\n\n", *publish)
			} else {
				fmt.Fprintln(w)
			}
		}
	}
	if needsEval && eval == nil {
		if eval, err = experiments.RunEvaluation(ctx, art, cfg); err != nil {
			return err
		}
		fmt.Fprintf(w, "evaluation: 5 applications x policies executed (%.1fs)\n\n",
			reg.WallTimer("pipeline.eval_seconds").Seconds())
	}
	// -load is refused with -cv, so an unpipelined -cv run has just
	// trained through Prepare and holds the corpus the search needs.
	if *cvFlag && !pipelined {
		if cvResults, err = experiments.CVFeatureSearch(ctx, art, cfg, nil); err != nil {
			return err
		}
	}
	if len(cvResults) > 0 {
		fmt.Fprintf(w, "CV feature-subset search (%d-fold):\n", 3)
		for _, r := range cvResults {
			fmt.Fprintf(w, "  %d events: mean R²=%.3f\n", r.Events, r.MeanR2)
		}
		fmt.Fprintln(w)
	}

	var fig3Rows []experiments.Fig3Row
	var table3Rows []experiments.Table3Row
	var table4Rows []experiments.Table4Row
	var fig7Points []experiments.Fig7Point
	var ablationRows []experiments.AblationRow

	if all || want["table1"] {
		if err := experiments.Table1(w, cfg); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if all || want["table2"] {
		if err := experiments.Table2(w, cfg); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if all || want["fig3"] {
		if fig3Rows, err = experiments.Fig3(ctx, w, cfg); err != nil {
			return err
		}
	}
	if all || want["fig4"] {
		experiments.Fig4(w, eval)
	}
	if all || want["fig5"] {
		experiments.Fig5(w, eval)
	}
	if all || want["fig6"] {
		experiments.Fig6(w, eval)
	}
	if all || want["table3"] {
		if table3Rows, err = experiments.Table3(ctx, w, art, cfg); err != nil {
			return err
		}
	}
	if all || want["fig7"] {
		if fig7Points, err = experiments.Fig7(ctx, w, art, cfg); err != nil {
			return err
		}
	}
	if all || want["table4"] {
		if table4Rows, err = experiments.Table4(w, eval); err != nil {
			return err
		}
	}
	if all || want["alpha"] {
		if err := experiments.AlphaStudy(w, eval); err != nil {
			return err
		}
	}
	if all || want["ablations"] {
		if ablationRows, err = experiments.Ablations(ctx, w, art, cfg); err != nil {
			return err
		}
	}
	if want["cxl"] { // not part of 'all': it retrains and re-runs everything
		if _, err := experiments.CXL(ctx, w, cfg); err != nil {
			return err
		}
	}
	if want["replan"] { // not part of 'all': new epoch-lifecycle cells, opt-in
		if _, err := experiments.ReplanStudy(ctx, w, art, cfg); err != nil {
			return err
		}
	}

	if *metricsPath != "" {
		if err := writeFile(*metricsPath, eval.MetricsDump(reg).WriteMetricsJSON); err != nil {
			return err
		}
		fmt.Fprintf(w, "metrics written to %s\n", *metricsPath)
	}
	if *tracePath != "" {
		if err := writeFile(*tracePath, eval.WriteTraceJSON); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace written to %s\n", *tracePath)
	}

	if *jsonPath != "" {
		resolved := *workers
		if resolved <= 0 {
			resolved = runtime.NumCPU()
		}
		sum := experiments.Summarize(art, eval, cfg)
		sum.Fig3 = fig3Rows
		sum.Table3 = table3Rows
		sum.Table4 = table4Rows
		sum.Fig7 = fig7Points
		sum.Ablations = ablationRows
		sum.Timing = experiments.TimingFromRegistry(reg, resolved, pipelined, art)
		if err := writeFile(*jsonPath, sum.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(w, "summary written to %s\n", *jsonPath)
	}
	return nil
}

// writeFile creates path and fills it with write; a failed Close is
// reported alongside write's error.
func writeFile(path string, write func(io.Writer) error) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, f.Close()) }()
	return write(f)
}

// saveArtifacts checkpoints the trained pipeline via the public snapshot
// surface, with merchbench's training provenance attached.
func saveArtifacts(path string, art *experiments.Artifacts, cfg experiments.Config) error {
	level := "full"
	if cfg.Quick {
		level = "quick"
	}
	X, _ := corpus.Matrix(art.Samples, pmc.SelectedEvents)
	sys := &merchandiser.System{
		Spec:      art.Spec,
		Perf:      art.Perf,
		TrainedR2: art.TestR2,
		Meta: merchandiser.SystemMeta{
			Seed:    cfg.Seed,
			Level:   level,
			Samples: len(art.Samples),
			Stats:   store.StatsFromMatrix(corpus.FeatureNames(pmc.SelectedEvents), X),
		},
	}
	return sys.SaveFile(path)
}

// experimentNames are the names -exp accepts.
var experimentNames = []string{
	"table1", "table2", "table3", "table4",
	"fig3", "fig4", "fig5", "fig6", "fig7",
	"alpha", "ablations", "cxl", "replan", "all", "none",
}

// parseExperiments splits -exp's comma-separated list into the set of
// experiments to run, refusing any name merchbench does not know: a
// misspelt name would otherwise run nothing and exit 0.
func parseExperiments(spec string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, e := range strings.Split(spec, ",") {
		e = strings.TrimSpace(e)
		if !slices.Contains(experimentNames, e) {
			return nil, fmt.Errorf("-exp: unknown experiment %q (valid: %s)", e, strings.Join(experimentNames, ", "))
		}
		want[e] = true
	}
	return want, nil
}
