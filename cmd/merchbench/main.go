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
//	merchbench -exp cosched -tenants spgemm=1228,bfs=512   # multi-tenant quota study
//	merchbench -replan drift -exp fig4   # run Merchandiser cells with drift re-planning
//	merchbench -exp replan -bench-replan BENCH_8.json -quick   # re-planning benchmark report
//	merchbench -exp none -quick -save sys.artifact -registry /var/merch -publish v1 -promote   # train, publish, promote
//	merchbench -exp fig4 -out results/   # relative outputs land under results/
//	merchbench -exp fig4 -cpuprofile cpu.pb.gz   # CPU profile of the run
//	merchbench -exp fig4 -memprofile mem.pb.gz   # post-run heap profile
//
// Experiments: table1 table2 table3 table4 fig3 fig4 fig5 fig6 fig7 alpha
// ablations.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
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
	exp := flag.String("exp", "all", "experiment to run: table1,table2,table3,table4,fig3,fig4,fig5,fig6,fig7,alpha,ablations,cxl,replan,cosched or 'all' (replan and cosched run only when named)")
	quick := flag.Bool("quick", false, "reduced scale (smaller apps and corpus)")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 0, "concurrency of training and evaluation (0 = NumCPU); results are identical for any value")
	jsonPath := flag.String("json", "", "also write a machine-readable summary to this file")
	metricsPath := flag.String("metrics", "", "write the deterministic metrics dump (per-cell registry snapshots) to this file")
	tracePath := flag.String("trace", "", "write a chrome-trace event log of the evaluation to this file")
	policies := flag.String("policy", "", "comma-separated policy names to evaluate (default: all registered; see -policy list)")
	benchOut := flag.String("bench-out", "", "write the stable timing/benchmark report (schema "+experiments.BenchSchema+") to this file")
	cvFlag := flag.Bool("cv", false, "also run the k-fold feature-subset search (pipelined runs overlap it with evaluation)")
	outDir := flag.String("out", "", "directory for output files; relative -json/-metrics/-trace/-save paths are placed under it instead of the CWD")
	savePath := flag.String("save", "", "after training, checkpoint the system (spec + correlation function) to this artifact file")
	loadPath := flag.String("load", "", "skip training and restore the system from this artifact file")
	benchCache := flag.String("bench-cache", "", "measure the replica response cache (/place cold vs cached) and write the report (schema "+experiments.BenchSchema+") to this file, then exit")
	replanMode := flag.String("replan", "", "Merchandiser re-planning mode for every cell: off, drift or interval (default off — byte-identical to plan-once)")
	replanEpoch := flag.Int("replan-epoch", 0, "epoch length in policy ticks for -replan (0 = default)")
	tenants := flag.String("tenants", "", "per-tenant DRAM page quotas for -exp cosched as name=pages pairs, e.g. spgemm=1228,bfs=512 (default: a 60/25 split of DRAM)")
	benchReplan := flag.String("bench-replan", "", "run the PhaseShift re-planning study at Workers=1 and 8, verify they agree exactly, and write the report (schema "+experiments.BenchSchema+") to this file")
	registryRoot := flag.String("registry", "", "model registry root for -publish/-promote (see cmd/merchserved -registry)")
	publish := flag.String("publish", "", "with -save and -registry: publish the saved artifact into the registry under this version name")
	promote := flag.Bool("promote", false, "with -publish: promote the published version to CURRENT (replicas pick it up on SIGHUP or POST /reloadz)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (taken after the run, post-GC) to this file")
	flag.Parse()

	if *savePath != "" && *loadPath != "" {
		fail(fmt.Errorf("-save and -load are mutually exclusive"))
	}
	if *publish != "" && (*savePath == "" || *registryRoot == "") {
		fail(fmt.Errorf("-publish needs -save (the artifact to publish) and -registry (where to publish it)"))
	}
	if *promote && *publish == "" {
		fail(fmt.Errorf("-promote needs -publish"))
	}
	outPath := func(p string) string {
		if p == "" || *outDir == "" || filepath.IsAbs(p) {
			return p
		}
		return filepath.Join(*outDir, p)
	}
	if *outDir != "" {
		fail(os.MkdirAll(*outDir, 0o755))
	}
	*jsonPath = outPath(*jsonPath)
	*metricsPath = outPath(*metricsPath)
	*tracePath = outPath(*tracePath)
	*benchOut = outPath(*benchOut)
	*savePath = outPath(*savePath)
	*benchCache = outPath(*benchCache)
	*benchReplan = outPath(*benchReplan)
	*cpuProfile = outPath(*cpuProfile)
	*memProfile = outPath(*memProfile)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		fail(err)
		fail(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			fail(f.Close())
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			fail(err)
			runtime.GC() // settle the heap so the profile reflects live objects
			fail(pprof.WriteHeapProfile(f))
			fail(f.Close())
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
	fail(err)
	cfg.Replan = core.ReplanConfig{Mode: rmode, EpochTicks: *replanEpoch}
	tenantQuotas, err := parseTenants(*tenants)
	fail(err)

	// Standalone cache benchmark: one synthetic artifact, one in-process
	// replica, /place timed cold and warm.
	if *benchCache != "" {
		fail(runCacheBench(ctx, os.Stdout, *benchCache, cfg))
		return
	}
	if *policies != "" {
		if *policies == "list" {
			fmt.Println(strings.Join(policyreg.Names(), "\n"))
			return
		}
		for _, name := range strings.Split(*policies, ",") {
			name = strings.TrimSpace(name)
			if _, err := policyreg.Lookup(name); err != nil {
				fail(err)
			}
			cfg.Policies = append(cfg.Policies, name)
		}
	}
	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	w := os.Stdout

	needsArtifacts := all || want["table3"] || want["table4"] || want["fig4"] ||
		want["fig5"] || want["fig6"] || want["fig7"] || want["alpha"] || want["ablations"] ||
		want["replan"] || want["cosched"] || *benchReplan != ""
	needsEval := all || want["table4"] || want["fig4"] || want["fig5"] ||
		want["fig6"] || want["alpha"] || *jsonPath != "" || *metricsPath != "" || *tracePath != ""

	if *loadPath != "" && (all || want["table3"] || want["fig7"] || want["ablations"] || want["cxl"]) {
		fail(fmt.Errorf("a -load artifact carries the trained model but not the training corpus; table3, fig7, ablations and cxl retrain — run them without -load (use -exp like fig4,table4)"))
	}

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
		fail(err)
		art = &experiments.Artifacts{Spec: sys.Spec, Perf: sys.Perf, TestR2: sys.TrainedR2, SampleCount: sys.Meta.Samples}
		fmt.Fprintf(w, "offline: restored from %s (level=%s, %d samples, held-out R²=%.3f) — no retraining\n\n",
			*loadPath, sys.Meta.Level, sys.Meta.Samples, sys.TrainedR2)
	case pipelined:
		res, perr := experiments.RunPipeline(ctx, cfg, experiments.PipelineOptions{CV: *cvFlag})
		fail(perr)
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
		fail(err)
		fmt.Fprintf(w, "offline: correlation function trained on %d samples, held-out R²=%.3f (%.1fs)\n\n",
			len(art.Samples), art.TestR2, reg.WallTimer("pipeline.train_seconds").Seconds())
	}
	if *savePath != "" {
		fail(saveArtifacts(*savePath, art, cfg))
		// A replan-study run embeds its drift-mode epoch reports into the
		// checkpoint: the serving replica then answers /replanz with the
		// provenance of the exact model it is running.
		if want["replan"] {
			recs, err := experiments.ReplanEpochRecords(ctx, art, cfg)
			fail(err)
			fail(embedEpochs(*savePath, recs))
			fmt.Fprintf(w, "embedded %d epoch reports into the checkpoint\n", len(recs))
		}
		fmt.Fprintf(w, "checkpoint written to %s\n\n", *savePath)
		if *publish != "" {
			reg, err := registry.Open(*registryRoot)
			fail(err)
			ent, err := reg.Publish(*publish, *savePath)
			fail(err)
			fmt.Fprintf(w, "published %s to %s (sha256 %s…)\n", ent.Version, *registryRoot, ent.SHA256[:12])
			if *promote {
				fail(reg.Promote(*publish))
				fmt.Fprintf(w, "promoted %s to CURRENT\n\n", *publish)
			} else {
				fmt.Fprintln(w)
			}
		}
	}
	if needsEval && eval == nil {
		eval, err = experiments.RunEvaluation(ctx, art, cfg)
		fail(err)
		fmt.Fprintf(w, "evaluation: 5 applications x policies executed (%.1fs)\n\n",
			reg.WallTimer("pipeline.eval_seconds").Seconds())
	}
	if *cvFlag && !pipelined && art != nil && len(art.Samples) > 0 {
		cvResults, err = experiments.CVFeatureSearch(ctx, art, cfg, nil)
		fail(err)
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
		fail(experiments.Table1(w, cfg))
		fmt.Fprintln(w)
	}
	if all || want["table2"] {
		fail(experiments.Table2(w, cfg))
		fmt.Fprintln(w)
	}
	if all || want["fig3"] {
		fig3Rows, err = experiments.Fig3(ctx, w, cfg)
		fail(err)
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
		table3Rows, err = experiments.Table3(ctx, w, art, cfg)
		fail(err)
	}
	if all || want["fig7"] {
		fig7Points, err = experiments.Fig7(ctx, w, art, cfg)
		fail(err)
	}
	if all || want["table4"] {
		table4Rows, err = experiments.Table4(w, eval)
		fail(err)
	}
	if all || want["alpha"] {
		fail(experiments.AlphaStudy(w, eval))
	}
	if all || want["ablations"] {
		ablationRows, err = experiments.Ablations(ctx, w, art, cfg)
		fail(err)
	}
	if want["cxl"] { // not part of 'all': it retrains and re-runs everything
		_, err := experiments.CXL(ctx, w, cfg)
		fail(err)
	}
	if want["replan"] && *benchReplan == "" { // not part of 'all': new epoch-lifecycle cells, opt-in (-bench-replan prints the same table itself)
		_, err := experiments.ReplanStudy(ctx, w, art, cfg)
		fail(err)
	}
	if want["cosched"] { // not part of 'all' for the same reason
		_, err := experiments.MultiTenantStudy(ctx, w, art, cfg, tenantQuotas)
		fail(err)
	}
	if *benchReplan != "" {
		rep, err := experiments.ReplanBench(ctx, w, art, cfg)
		fail(err)
		f, err := os.Create(*benchReplan)
		fail(err)
		fail(rep.WriteJSON(f))
		fail(f.Close())
		fmt.Fprintf(w, "replan bench report written to %s (drift recovers %.2fx)\n", *benchReplan, rep.SpeedupDrift)
	}

	if *metricsPath != "" {
		f, err := os.Create(*metricsPath)
		fail(err)
		fail(eval.MetricsDump(reg).WriteMetricsJSON(f))
		fail(f.Close())
		fmt.Fprintf(w, "metrics written to %s\n", *metricsPath)
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		fail(err)
		fail(eval.WriteTraceJSON(f))
		fail(f.Close())
		fmt.Fprintf(w, "trace written to %s\n", *tracePath)
	}

	resolved := *workers
	if resolved <= 0 {
		resolved = runtime.NumCPU()
	}
	if *jsonPath != "" {
		sum := experiments.Summarize(art, eval, cfg)
		sum.Fig3 = fig3Rows
		sum.Table3 = table3Rows
		sum.Table4 = table4Rows
		sum.Fig7 = fig7Points
		sum.Ablations = ablationRows
		sum.Timing = experiments.TimingFromRegistry(reg, resolved, pipelined, art)
		f, err := os.Create(*jsonPath)
		fail(err)
		fail(sum.WriteJSON(f))
		fail(f.Close())
		fmt.Fprintf(w, "summary written to %s\n", *jsonPath)
	}
	if *benchOut != "" {
		timing := experiments.TimingFromRegistry(reg, resolved, pipelined, art)
		rep := experiments.NewBenchReport(art, cfg, resolved, timing)
		f, err := os.Create(*benchOut)
		fail(err)
		fail(rep.WriteJSON(f))
		fail(f.Close())
		fmt.Fprintf(w, "bench report written to %s\n", *benchOut)
	}
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

// embedEpochs attaches epoch-lifecycle records to an already-written
// artifact as its "epochs" section.
func embedEpochs(path string, recs []store.EpochRecord) error {
	a, err := store.ReadFile(path)
	if err != nil {
		return err
	}
	if err := a.SetEpochs(recs); err != nil {
		return err
	}
	return store.WriteFile(path, a)
}

// parseTenants parses the -tenants spec ("name=pages,name=pages") into a
// quota map; an empty spec returns nil (the study's default split).
func parseTenants(spec string) (map[string]uint64, error) {
	if spec == "" {
		return nil, nil
	}
	out := map[string]uint64{}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		name, pages, ok := strings.Cut(kv, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("-tenants: %q is not name=pages", kv)
		}
		var n uint64
		if _, err := fmt.Sscanf(pages, "%d", &n); err != nil {
			return nil, fmt.Errorf("-tenants: bad page count in %q: %v", kv, err)
		}
		out[name] = n
	}
	return out, nil
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "merchbench:", err)
		os.Exit(1)
	}
}
