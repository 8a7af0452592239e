// Command cachebench produces BENCH_10.json: the response-cache tier's
// committed benchmark evidence. It measures two things on one machine:
//
//  1. Replica /place cost, cold vs cached (serve.CacheBench): every
//     request distinct, then every request a repeat — the hit-speedup
//     row must clear 5x or the run fails.
//  2. Fleet throughput through a real gate over two in-process
//     replicas, four legs: cache off/on × Zipf s ∈ {0, 1.1}. The gate
//     cache is sized well under the app universe, so the uniform trace
//     thrashes the LRU while the skewed trace keeps its hot apps
//     resident — the regime the cache is for. Each leg's throughput,
//     latency quantiles and gate hit rate land in tagged report rows.
//
// All legs replay the same seeded trace shapes, so reruns are
// comparable; wall-clock numbers vary with the machine.
//
//	go run ./scripts/cachebench -out BENCH_10.json
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"merchandiser"
	"merchandiser/internal/experiments"
	"merchandiser/internal/gate"
	"merchandiser/internal/serve"
)

const (
	fleetApps     = 512  // app universe per leg
	fleetRequests = 3000 // trace length per leg
	fleetWorkers  = 8
	gateCacheCap  = 128 // deliberately << fleetApps: uniform traffic thrashes it
	seed          = 7
)

func main() {
	out := flag.String("out", "BENCH_10.json", "output report path (schema "+experiments.BenchSchema+")")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("cachebench: ")
	ctx := context.Background()

	dir, err := os.MkdirTemp("", "cachebench-*")
	check(err)
	defer os.RemoveAll(dir)

	// One quick-trained system backs everything.
	sys, err := merchandiser.NewSystem(merchandiser.DefaultSpec(), merchandiser.TrainQuick)
	check(err)
	artifact := filepath.Join(dir, "sys.artifact")
	check(sys.SaveFile(artifact))

	ops := map[string]float64{}

	// Leg 0: replica-side hit vs miss.
	res, err := serve.CacheBench(ctx, artifact, 256)
	check(err)
	log.Printf("replica: miss p50 %.0fµs p99 %.0fµs, hit p50 %.0fµs p99 %.0fµs, speedup %.1fx",
		res.MissP50, res.MissP99, res.HitP50, res.HitP99, res.HitSpeedupX)
	if res.HitSpeedupX < 5 {
		log.Fatalf("replica cache-hit speedup %.1fx is under the 5x bar", res.HitSpeedupX)
	}
	ops["cache_iters"] = float64(res.Iters)
	ops["cache_miss_p50_micros"] = res.MissP50
	ops["cache_miss_p99_micros"] = res.MissP99
	ops["cache_hit_p50_micros"] = res.HitP50
	ops["cache_hit_p99_micros"] = res.HitP99
	ops["cache_hit_speedup_x"] = res.HitSpeedupX

	// Legs 1-4: gate + 2 replicas, cache off/on × zipf 0/1.1.
	type leg struct {
		cache bool
		zipf  float64
	}
	results := map[string]*gate.LoadgenResult{}
	for _, l := range []leg{{false, 0}, {false, 1.1}, {true, 0}, {true, 1.1}} {
		tag := legTag(l.cache, l.zipf)
		lr, hitRate := runFleetLeg(ctx, artifact, l.cache, l.zipf, tag, ops)
		results[tag] = lr
		log.Printf("fleet %s: %.0f req/s, p50 %.0fµs p99 %.0fµs, gate hit rate %.0f%%",
			tag, lr.ThroughputRPS, lr.P50, lr.P99, 100*hitRate)
	}

	// The skewed cached leg must beat the skewed uncached leg: that is
	// the whole point of the tier.
	on, off := results[legTag(true, 1.1)], results[legTag(false, 1.1)]
	gain := on.ThroughputRPS / off.ThroughputRPS
	ops["gate_cache_throughput_gain_zipf1.1_x"] = gain
	log.Printf("gate throughput gain at zipf 1.1: %.2fx", gain)
	if gain <= 1 {
		log.Fatalf("cache-on throughput (%.0f rps) did not beat cache-off (%.0f rps) on the skewed trace", on.ThroughputRPS, off.ThroughputRPS)
	}

	rep := &experiments.BenchReport{
		Schema:  experiments.BenchSchema,
		Seed:    seed,
		Workers: fleetWorkers,
		Ops:     ops,
	}
	f, err := os.Create(*out)
	check(err)
	check(rep.WriteJSON(f))
	check(f.Close())
	log.Printf("report written to %s", *out)
}

func legTag(cache bool, zipf float64) string {
	c := "off"
	if cache {
		c = "on"
	}
	return fmt.Sprintf("cache=%s_zipf=%g_", c, zipf)
}

// runFleetLeg boots two in-process replicas and a gate, replays the
// seeded trace through the gate, tears the fleet down and folds the
// leg's rows into ops. It returns the loadgen result and the gate's
// cache hit rate (0 for cache-off legs).
func runFleetLeg(ctx context.Context, artifact string, cached bool, zipf float64, tag string, ops map[string]float64) (*gate.LoadgenResult, float64) {
	var backends []string
	var closers []func()
	for i := 0; i < 2; i++ {
		cfg := serve.Config{QueueDepth: 256, MaxBatch: 16, BatchWindow: time.Millisecond}
		if cached {
			cfg.CacheEntries = 4096
		}
		svc := serve.New(cfg)
		_, err := svc.LoadArtifactAs(ctx, artifact, "v1")
		check(err)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		check(err)
		srv := &http.Server{Handler: svc.Handler(serve.HTTPConfig{RequestTimeout: 10 * time.Second})}
		go srv.Serve(ln)
		backends = append(backends, "http://"+ln.Addr().String())
		closers = append(closers, func() {
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(sctx)
			svc.Shutdown(sctx)
		})
	}

	gcfg := gate.Config{Backends: backends, HealthInterval: 20 * time.Millisecond}
	if cached {
		gcfg.CacheEntries = gateCacheCap
	}
	g := gate.New(gcfg)
	gln, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	gsrv := &http.Server{Handler: g.Handler()}
	go gsrv.Serve(gln)
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		gsrv.Shutdown(sctx)
		g.Close()
		for _, c := range closers {
			c()
		}
	}()

	deadline := time.Now().Add(10 * time.Second)
	for !g.Ready() {
		if time.Now().After(deadline) {
			log.Fatal("gate never became ready")
		}
		time.Sleep(5 * time.Millisecond)
	}

	lcfg := gate.LoadgenConfig{
		Target:          "http://" + gln.Addr().String(),
		Requests:        fleetRequests,
		Workers:         fleetWorkers,
		Apps:            fleetApps,
		TasksPerRequest: 8,
		Seed:            seed,
		Replicas:        2,
		ZipfS:           zipf,
		Tag:             tag,
	}
	lr, err := gate.RunLoadgen(ctx, lcfg)
	check(err)
	if lr.Errors > 0 {
		log.Fatalf("leg %s: %d request errors", tag, lr.Errors)
	}
	for k, v := range lr.BenchReport(lcfg).Ops {
		ops[k] = v
	}
	hitRate := 0.0
	if cached {
		stats, collapsed := g.CacheStats()
		hitRate = stats.HitRate()
		prefix := fmt.Sprintf("gate_replicas=%d_%s", 2, tag)
		ops[prefix+"cache_hits"] = float64(stats.Hits)
		ops[prefix+"cache_misses"] = float64(stats.Misses)
		ops[prefix+"cache_hit_rate"] = hitRate
		ops[prefix+"cache_collapsed"] = float64(collapsed)
		ops[prefix+"cache_evictions"] = float64(stats.Evictions)
	}
	return lr, hitRate
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
