package experiments

import (
	"fmt"
	"io"

	"merchandiser/internal/hm"
	"merchandiser/internal/stats"
)

// Fig4 renders the overall-performance comparison (speedup over PM-only,
// paper Figure 4) from an evaluation matrix.
func Fig4(w io.Writer, eval *Eval) {
	fprintf(w, "Figure 4: performance speedup over PM-only execution\n")
	fprintf(w, "%-12s", "App")
	for _, p := range []string{"MemoryMode", "MemoryOptimizer", "Merchandiser"} {
		fprintf(w, " %16s", p)
	}
	fprintf(w, " %16s\n", "App-specific")
	for _, app := range AppNames {
		fprintf(w, "%-12s", app)
		for _, p := range []string{"MemoryMode", "MemoryOptimizer", "Merchandiser"} {
			fprintf(w, " %16.3f", eval.Speedup(app, p))
		}
		extra := extraPolicies(app)
		if len(extra) > 0 {
			fprintf(w, " %10s=%.3f", extra[0], eval.Speedup(app, extra[0]))
		}
		fmt.Fprintln(w)
	}
	fprintf(w, "%-12s", "average")
	for _, p := range []string{"MemoryMode", "MemoryOptimizer", "Merchandiser"} {
		fprintf(w, " %16.3f", eval.MeanSpeedup(p))
	}
	fmt.Fprintln(w)

	merchVsMM := relImprovement(eval, "Merchandiser", "MemoryMode")
	merchVsMO := relImprovement(eval, "Merchandiser", "MemoryOptimizer")
	fprintf(w, "Merchandiser vs MemoryMode: avg %+.1f%%; vs MemoryOptimizer: avg %+.1f%%\n\n",
		merchVsMM*100, merchVsMO*100)

	// Bar view (one row per app/policy, bars scaled to the best speedup).
	best := 1.0
	for _, app := range AppNames {
		for _, p := range eval.sortedPolicies(app) {
			if v := eval.Speedup(app, p); v > best {
				best = v
			}
		}
	}
	fprintf(w, "Speedup bars (over PM-only):\n")
	for _, app := range AppNames {
		for _, p := range []string{"MemoryMode", "MemoryOptimizer", "Merchandiser"} {
			v := eval.Speedup(app, p)
			fprintf(w, "  %-10s %-16s %5.2fx %s\n", app, p, v, bar(v, best, 36))
		}
	}
	fmt.Fprintln(w)
}

// bar renders value v against scale max as a fixed-width ASCII bar.
func bar(v, max float64, width int) string {
	if max <= 0 {
		return ""
	}
	n := int(v / max * float64(width))
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}

// relImprovement returns the mean of (T_base − T_policy)/T_base across
// apps — the paper's "x% performance improvement over y" metric.
func relImprovement(eval *Eval, policy, base string) float64 {
	var s float64
	n := 0
	for _, app := range AppNames {
		pb := eval.Runs[app][base]
		pp := eval.Runs[app][policy]
		if pb == nil || pp == nil || pb.TotalTime == 0 {
			continue
		}
		s += (pb.TotalTime - pp.TotalTime) / pb.TotalTime
		n++
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// Fig5 renders per-task execution-time variance (paper Figure 5: boxplots
// and A.C.V).
func Fig5(w io.Writer, eval *Eval) {
	fprintf(w, "Figure 5: task execution time variance (normalized to slowest task; A.C.V in %%)\n")
	fprintf(w, "%-12s %-16s %8s %8s %8s %8s %8s\n", "App", "Policy", "Q1", "Median", "Q3", "Whisk-", "ACV%")
	for _, app := range AppNames {
		for _, pol := range eval.sortedPolicies(app) {
			run := eval.Runs[app][pol]
			// Normalize each instance's task times to its slowest task,
			// pool across instances (Figure 5's per-app distributions).
			var pool []float64
			for _, inst := range run.TaskMatrix {
				_, hi, err := stats.MinMax(inst)
				if err != nil || hi == 0 {
					continue
				}
				for _, v := range inst {
					pool = append(pool, v/hi)
				}
			}
			box, err := stats.BoxSummary(pool)
			if err != nil {
				continue
			}
			fprintf(w, "%-12s %-16s %8.3f %8.3f %8.3f %8.3f %8.2f\n",
				app, pol, box.Q1, box.Median, box.Q3, box.WhiskerLow, run.ACV*100)
		}
	}
	// §7.2 headline: A.C.V reduction of Merchandiser vs the two baselines.
	fprintf(w, "A.C.V reduction: vs MemoryMode %.1f%%, vs MemoryOptimizer %.1f%%\n",
		acvReduction(eval, "MemoryMode")*100, acvReduction(eval, "MemoryOptimizer")*100)
	// §7.1: per-task migration spread for the imbalanced applications.
	fprintf(w, "MemoryOptimizer per-task migration spread (max/min pages):\n")
	for _, app := range AppNames {
		run := eval.Runs[app]["MemoryOptimizer"]
		if run == nil || run.MigMin == 0 {
			continue
		}
		fprintf(w, "  %-12s %.1fx (%d vs %d)\n", app,
			float64(run.MigMax)/float64(run.MigMin), run.MigMax, run.MigMin)
	}
	fmt.Fprintln(w)
}

// acvReduction is the mean relative A.C.V reduction of Merchandiser
// against the named baseline.
func acvReduction(eval *Eval, base string) float64 {
	var s float64
	n := 0
	for _, app := range AppNames {
		pb := eval.Runs[app][base]
		pm := eval.Runs[app]["Merchandiser"]
		if pb == nil || pm == nil || pb.ACV == 0 {
			continue
		}
		s += (pb.ACV - pm.ACV) / pb.ACV
		n++
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// Fig6 renders the WarpX bandwidth timelines (paper Figure 6) for the
// three policies, and the §7.2 average-bandwidth comparison.
func Fig6(w io.Writer, eval *Eval) {
	fprintf(w, "Figure 6: memory bandwidth during WarpX execution (GB/s)\n")
	for _, pol := range []string{"MemoryMode", "MemoryOptimizer", "Merchandiser"} {
		run := eval.Runs["WarpX"][pol]
		if run == nil {
			continue
		}
		var sumD, sumP, peakD, peakP float64
		for _, s := range run.Bandwidth {
			sumD += s.GBs[hm.DRAM]
			sumP += s.GBs[hm.PM]
			if s.GBs[hm.DRAM] > peakD {
				peakD = s.GBs[hm.DRAM]
			}
			if s.GBs[hm.PM] > peakP {
				peakP = s.GBs[hm.PM]
			}
		}
		n := float64(len(run.Bandwidth))
		if n == 0 {
			n = 1
		}
		fprintf(w, "%-16s avg DRAM %7.3f  avg PM %7.3f  peak DRAM %7.3f  peak PM %7.3f  (%d samples)\n",
			pol, sumD/n, sumP/n, peakD, peakP, len(run.Bandwidth))
		// Compact timeline: 20 buckets of the run.
		fprintf(w, "  DRAM timeline: ")
		renderSpark(w, run.Bandwidth, hm.DRAM)
		fprintf(w, "\n  PM   timeline: ")
		renderSpark(w, run.Bandwidth, hm.PM)
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// AvgBandwidth returns the mean bandwidth of one tier for a run.
func AvgBandwidth(run *AppRun, tier hm.TierID) float64 {
	if run == nil || len(run.Bandwidth) == 0 {
		return 0
	}
	var s float64
	for _, b := range run.Bandwidth {
		s += b.GBs[tier]
	}
	return s / float64(len(run.Bandwidth))
}

func renderSpark(w io.Writer, samples []hm.BWSample, tier hm.TierID) {
	const buckets = 24
	if len(samples) == 0 {
		return
	}
	vals := make([]float64, buckets)
	counts := make([]float64, buckets)
	for i, s := range samples {
		b := i * buckets / len(samples)
		vals[b] += s.GBs[tier]
		counts[b]++
	}
	var maxV float64
	for b := range vals {
		if counts[b] > 0 {
			vals[b] /= counts[b]
		}
		if vals[b] > maxV {
			maxV = vals[b]
		}
	}
	marks := []rune(" .:-=+*#%@")
	for _, v := range vals {
		i := 0
		if maxV > 0 {
			i = int(v / maxV * float64(len(marks)-1))
		}
		fmt.Fprint(w, string(marks[i]))
	}
}
