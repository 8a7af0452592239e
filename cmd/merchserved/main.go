// Command merchserved is the placement daemon: it loads a trained-system
// artifact (written by merchbench -save or System.SaveFile) and serves
// placement plans over HTTP — the production half of Merchandiser's
// train-once/serve-many split.
//
//	merchbench -exp none -quick -save sys.artifact
//	merchserved -artifact sys.artifact -addr localhost:8077
//	curl localhost:8077/readyz
//	curl -X POST localhost:8077/place -d '{"tasks":[{"name":"t0","t_pm_only":2,"t_dram_only":0.8,"total_accesses":4e6,"footprint_pages":300}]}'
//
// Endpoints: /healthz (liveness), /readyz (503 until the artifact is
// loaded and during drain; the JSON body names the serving model's
// version and SHA-256), /metricsz (obs registry snapshot), /reloadz
// (POST; hot-swap to the registry's promoted version) and /place (POST
// placement request). One planner goroutine answers queued requests one
// at a time, each with its own MinMakespanPlan over the node's full
// DRAM, so a plan depends only on (model, request). SIGTERM/SIGINT
// drains gracefully: admitted requests are answered, new ones get 503,
// then the process exits. -pprof localhost:6060 additionally serves
// net/http/pprof on that separate address (off by default, never on the
// serving address).
//
// With -registry the daemon serves the registry's CURRENT version
// instead of a fixed -artifact path, and hot-reloads on SIGHUP (or POST
// /reloadz): the newly promoted artifact is restored in the background
// and swapped in between plans — zero admitted requests dropped,
// /readyz never flaps.
//
//	merchbench -exp none -quick -save sys.artifact -registry /var/merch -publish v2 -promote
//	kill -HUP $(pidof merchserved)   # or: curl -X POST localhost:8077/reloadz
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers debug handlers on DefaultServeMux, served only via -pprof
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"merchandiser"
	"merchandiser/internal/registry"
	"merchandiser/internal/serve"
	"merchandiser/internal/store"
)

func main() {
	addr := flag.String("addr", "localhost:8077", "listen address (host:port; port 0 picks a free port)")
	artifact := flag.String("artifact", "", "trained-system artifact to serve (see merchbench -save); mutually exclusive with -registry")
	registryRoot := flag.String("registry", "", "model registry root: serve the CURRENT version and hot-reload on SIGHUP or POST /reloadz")
	queue := flag.Int("queue", 64, "bounded request queue depth; overflow answers 429")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request deadline (queue wait + evaluation); expired requests answer 504")
	drain := flag.Duration("drain", 30*time.Second, "graceful-drain budget on SIGTERM before the process gives up waiting")
	cacheEntries := flag.Int("cache-entries", 0, "response-cache capacity: identical requests against the same model skip the planner entirely (0 disables)")
	planlog := flag.String("planlog", "", "directory to write one plan artifact per planned request (for audit/replay)")
	addrfile := flag.String("addrfile", "", "write the bound listen address to this file once serving (for harnesses using port 0)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this separate address (e.g. localhost:6060); off by default")
	flag.Parse()

	if (*artifact == "") == (*registryRoot == "") {
		log.Fatal("merchserved: exactly one of -artifact or -registry is required (write one with merchbench -save)")
	}

	reg := merchandiser.NewObserver()
	cfg := serve.Config{
		QueueDepth:     *queue,
		CacheEntries:   *cacheEntries,
		Obs:            reg,
		RestoreOptions: []merchandiser.RestoreOption{merchandiser.WithObserver(reg)},
	}
	var modelReg *registry.Registry
	if *registryRoot != "" {
		var err error
		modelReg, err = registry.Open(*registryRoot)
		if err != nil {
			log.Fatalf("merchserved: %v", err)
		}
		// The reload source: whatever the registry promotes, with the
		// SHA-256 recorded at publish. The service checks the bytes it
		// reads against it, so bit rot is caught before a restore is
		// attempted, at cold start and on every reload.
		cfg.Source = func(ctx context.Context) (serve.ArtifactRef, error) {
			ent, err := modelReg.Resolve()
			if err != nil {
				return serve.ArtifactRef{}, err
			}
			return serve.ArtifactRef{Path: ent.Path, Version: ent.Version, SHA256: ent.SHA256}, nil
		}
	}
	if *planlog != "" {
		if err := os.MkdirAll(*planlog, 0o755); err != nil {
			log.Fatalf("merchserved: %v", err)
		}
		cfg.PlanLog = planLogger(*planlog)
	}
	svc := serve.New(cfg)

	// LoadArtifact times the restore into serve.restore_seconds, so
	// /metricsz exposes the daemon's cold-start cost (binary-format
	// artifacts make it near-constant in model size).
	start := time.Now()
	var sys *merchandiser.System
	var err error
	if modelReg != nil {
		ref, rerr := cfg.Source(context.Background())
		if rerr != nil {
			log.Fatalf("merchserved: %v (publish and promote a version with merchbench -publish -promote)", rerr)
		}
		sys, err = svc.LoadArtifact(context.Background(), ref)
		if err == nil {
			log.Printf("registry %s version %s loaded in %s: level=%s samples=%d heldout-R²=%.3f",
				*registryRoot, ref.Version, time.Since(start).Round(time.Microsecond), sys.Meta.Level, sys.Meta.Samples, sys.TrainedR2)
		}
	} else {
		sys, err = svc.LoadArtifactAs(context.Background(), *artifact, filepath.Base(*artifact))
		if err == nil {
			log.Printf("artifact %s loaded in %s: level=%s samples=%d heldout-R²=%.3f",
				*artifact, time.Since(start).Round(time.Microsecond), sys.Meta.Level, sys.Meta.Samples, sys.TrainedR2)
		}
	}
	if err != nil {
		log.Fatalf("merchserved: %v", err)
	}

	// SIGHUP hot-reloads the promoted version: restore happens in the
	// background, the swap lands between plans, and in-flight requests
	// are answered by whichever model planned them.
	if modelReg != nil {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				info, reloaded, err := svc.Reload(context.Background())
				switch {
				case err != nil:
					log.Printf("SIGHUP reload failed (still serving %s): %v", svc.Info().Version, err)
				case reloaded:
					log.Printf("SIGHUP: reloaded to version %s (sha256 %s…)", info.Version, info.SHA256[:12])
				default:
					log.Printf("SIGHUP: version %s already current", info.Version)
				}
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("merchserved: %v", err)
	}
	if *addrfile != "" {
		if err := os.WriteFile(*addrfile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			log.Fatalf("merchserved: %v", err)
		}
	}
	srv := &http.Server{Handler: svc.Handler(serve.HTTPConfig{RequestTimeout: *timeout})}
	log.Printf("serving placement plans on %s", ln.Addr())

	// The placement handler uses its own mux, so the pprof handlers on
	// DefaultServeMux are reachable only through this opt-in listener —
	// never on the serving address.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			log.Fatalf("merchserved: pprof: %v", err)
		}
		log.Printf("pprof on http://%s/debug/pprof/", pln.Addr())
		go func() {
			if err := http.Serve(pln, nil); err != nil {
				log.Printf("merchserved: pprof: %v", err)
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-stop:
		log.Printf("%v: draining (budget %s)", sig, *drain)
	case err := <-errc:
		log.Fatalf("merchserved: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Drain order: first the service (marks not-ready, answers every
	// admitted request, stops the planner), then the HTTP server (waits
	// for in-flight handlers, which by now all have their answers).
	if err := svc.Shutdown(ctx); err != nil {
		log.Printf("merchserved: service drain: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("merchserved: http drain: %v", err)
	}
	log.Print("drained")
}

// planLogger writes each planned request's plan record as a
// single-section artifact named by plan sequence number. The service
// calls it from its one planner goroutine, so seq needs no lock.
func planLogger(dir string) func(*store.PlanRecord) {
	seq := 0
	return func(r *store.PlanRecord) {
		seq++
		a := &store.Artifact{Tool: "merchserved"}
		if err := a.SetPlan(r); err != nil {
			log.Printf("merchserved: plan log: %v", err)
			return
		}
		path := filepath.Join(dir, fmt.Sprintf("plan-%06d.artifact", seq))
		if err := store.WriteFile(path, a); err != nil {
			log.Printf("merchserved: plan log: %v", err)
		}
	}
}
