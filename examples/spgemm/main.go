// SpGEMM example: the paper's sparse matrix-matrix multiplication
// application (Figure 1.b) — a batch of real Gustavson multiplications per
// task instance — compared across PM-only, Memory Mode, MemoryOptimizer,
// Sparta and Merchandiser.
package main

import (
	"context"
	"fmt"
	"log"

	"merchandiser"
	"merchandiser/internal/apps"
)

func main() {
	spec := apps.ExperimentSpec()
	sys, err := merchandiser.NewSystem(spec, merchandiser.TrainQuick)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("building SpGEMM batch (symbolic Gustavson kernels run up front; the checksum runs the numeric phase)...")
	app, err := apps.NewSpGEMM(apps.SpGEMMConfig{
		Tasks: 8, Scale: 13, EdgeFactor: 2, Instances: 4, Rep: 40, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("result checksum (identical under every policy): %.6e\n\n", app.Checksum())

	opts := merchandiser.Options{StepSec: 0.001, IntervalSec: 0.05}
	rows, err := sys.Compare(context.Background(), app, opts,
		sys.PMOnly(), sys.MemoryMode(), sys.MemoryOptimizer(), sys.Sparta("spgemm/B"), sys.Merchandiser())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-18s %10s %12s %8s\n", "policy", "total (s)", "vs PM-only", "A.C.V%")
	for _, r := range rows {
		fmt.Printf("%-18s %10.3f %11.2fx %8.1f\n", r.Policy, r.TotalSeconds, r.Speedup, r.ACV*100)
	}
}
