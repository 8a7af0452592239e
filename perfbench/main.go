// Command perfbench is the repository's benchmark. One command runs a
// named workload against the code as it is deployed, checks every
// output, and prints each metric by name with its unit:
//
//	bash perfbench/run.sh --workload serve-distinct --seed 1 --seconds 16 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. An untraced run (--trace 0)
// reports the end-to-end metrics; a traced run (--trace 1) reports the
// per-layer metrics and writes its spans as a chrome trace under
// .bench_build/traces/. The line before it fingerprints the host and
// the code. README.md documents the workloads and every metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"merchandiser/internal/obs"
)

// processStart approximates when the process started: package variables
// are initialized before main runs.
var processStart = time.Now()

// workload is one set of inputs the benchmark runs. README.md gives the
// reasoning behind each in full.
type workload struct {
	name string
	run  func(context.Context, options) (*outcome, error)
}

var workloads = []workload{
	// Every /place request is a new task set: both response caches miss,
	// so all time goes to JSON, the batch window, predictions and the
	// planner.
	{"serve-distinct", serveWorkload(false)},
	// Requests repeat over 512 shapes with Zipf(1.1) popularity: most
	// answers come from the gate cache.
	{"serve-zipf", serveWorkload(true)},
	// The full-scale training and Figure 4 pipeline, the only workload
	// that runs corpus, ml fitting and the simulator, then Algorithm 1
	// decisions with its model.
	{"paper-eval", paperWorkload},
}

// options are one run's settings.
type options struct {
	seed    int64
	seconds int
	dir     string // per-run working directory inside the checkout
	// started is when the first set-up began: process start for the
	// measured pass, zero (meaning now) for a traced pass after it.
	started time.Time
	trace   bool
}

func (o options) setupStart(round int) time.Time {
	if round == 0 && !o.started.IsZero() {
		return o.started
	}
	return time.Now()
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	firstErr          error
	steal             float64           // host steal share over the timed phase
	gating            map[string]gating // how each timed phase's segments were kept
	values            map[string]float64
	spans             []obs.Event
}

// result is the line the benchmark's consumers read.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Int("seconds", 16, "run length; sets the fixed amount of timed work")
	trace := fs.Int("trace", 0, "1 adds a traced pass and reports per-layer metrics instead of end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0 or 1\n", strings.Join(names, ", "))
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	build := filepath.Join(root, ".bench_build")
	dir, err := os.MkdirTemp(ensureDir(build), "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	out, err := w.run(ctx, options{seed: *seed, seconds: *seconds, dir: dir, started: processStart, trace: *trace == 1})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}

	host := hostFingerprint(root, out.steal)
	failShare := share(float64(out.failed), float64(out.attempted))
	info := map[string]any{"workload": w.name, "seed": *seed, "seconds": *seconds, "host": host,
		"fail_share": failShare, "segments": out.gating}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
		out.values["fail_share"] = failShare
		out.values["host.steal_share"] = host.StealShare
		out.values["host.gomaxprocs"] = float64(host.GOMAXPROCS)
		out.values["host.numcpu"] = float64(host.NumCPU)
		path := filepath.Join(ensureDir(filepath.Join(build, "traces")), fmt.Sprintf("%s-seed%d.json", w.name, *seed))
		if err := writeTrace(path, out.spans); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		info["trace_file"] = path
	}
	if out.firstErr != nil {
		info["first_error"] = out.firstErr.Error()
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d operations failed, first: %v\n", w.name, out.failed, out.attempted, out.firstErr)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(info); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: report(defs, out.values)}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// ensureDir creates dir if needed and returns it; a failure surfaces
// at the first file written there.
func ensureDir(dir string) string {
	os.MkdirAll(dir, 0o755)
	return dir
}

func writeTrace(path string, events []obs.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
