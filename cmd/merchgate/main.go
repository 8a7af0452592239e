// Command merchgate is the fleet front tier: it consistent-hashes
// placement requests across N merchserved replicas, routes around
// replicas whose /readyz stops answering, and retries bounded hops along
// the hash ring on connection failure — so a rolling artifact promotion
// (publish → promote → SIGHUP each replica) is invisible to clients.
//
//	merchserved -artifact sys.artifact -addr localhost:8077 &
//	merchserved -artifact sys.artifact -addr localhost:8078 &
//	merchgate -backends http://localhost:8077,http://localhost:8078 -addr localhost:8070
//	curl localhost:8070/fleetz
//	curl -X POST localhost:8070/place -H 'X-Merch-Key: app-7' -d @req.json
//
// Endpoints: /healthz (liveness), /readyz (200 while ≥1 replica is
// routable), /metricsz (gate counters), /fleetz (per-replica health and
// serving model version/sha), /place (proxied placement request; routed
// by the X-Merch-Key header, else the SHA-256 of the body). The gate
// never parses a request: a replica judges it, and with -cache-entries
// set the gate replays a replica's 200 body only for a byte-identical
// request. A request whose primary replica fails to connect hops to at
// most two further ring nodes; two consecutive failures eject a replica.
//
// The repo's one benchmark, perfbench, measures the gate under load
// (see perfbench/README.md).
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"merchandiser"
	"merchandiser/internal/gate"
)

func main() {
	addr := flag.String("addr", "localhost:8070", "listen address (host:port; port 0 picks a free port)")
	backends := flag.String("backends", "", "comma-separated replica base URLs (required)")
	probe := flag.Duration("probe", 250*time.Millisecond, "/readyz health-probe interval")
	readmit := flag.Int("readmit", 2, "consecutive probe successes that re-admit a replica")
	timeout := flag.Duration("timeout", 15*time.Second, "per proxied request timeout")
	cacheEntries := flag.Int("cache-entries", 0, "gate response-cache capacity: byte-identical request bodies are answered from cached replica 200 bodies while the fleet serves one model SHA (0 disables)")
	addrfile := flag.String("addrfile", "", "write the bound listen address to this file once serving")
	flag.Parse()

	var urls []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			urls = append(urls, b)
		}
	}
	if len(urls) == 0 {
		log.Fatal("merchgate: -backends is required (comma-separated replica base URLs)")
	}

	obs := merchandiser.NewObserver()
	g := gate.New(gate.Config{
		Backends:       urls,
		HealthInterval: *probe,
		ReadmitAfter:   *readmit,
		Timeout:        *timeout,
		CacheEntries:   *cacheEntries,
		Obs:            obs,
	})
	defer g.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("merchgate: %v", err)
	}
	if *addrfile != "" {
		if err := os.WriteFile(*addrfile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			log.Fatalf("merchgate: %v", err)
		}
	}
	srv := &http.Server{Handler: g.Handler()}
	log.Printf("routing %d replicas on %s", len(urls), ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-stop:
		log.Printf("%v: shutting down", sig)
	case err := <-errc:
		log.Fatalf("merchgate: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("merchgate: http drain: %v", err)
	}
}
