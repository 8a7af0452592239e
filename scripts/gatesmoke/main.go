// Command gatesmoke is check.sh's fleet end-to-end smoke: it trains a
// quick System, publishes it to a model registry as v1, boots two real
// merchserved replicas off the registry plus a merchgate front tier,
// serves continuous traffic through the gate, then publishes and
// promotes v2 and SIGHUPs both replicas mid-traffic. It asserts that
// not one request failed across the live promotion (zero-drop
// hot-reload), that the gate's /fleetz converges on v2, and that each
// replica's plan-log audit trail records the version flip — v1 plans
// strictly before v2 plans, nothing else.
//
// The smoke runs twice: once with the response caches off (the legacy
// leg, byte-identical wire behavior) and once with -cache-entries set
// on both tiers. The cache leg additionally asserts that every response
// across the promotion is stamped with a published model SHA (zero
// stale answers), that the gate's cache landed a nonzero hit rate, and
// that a post-promotion repeat is served from cache already stamped v2.
//
//	go build -o bin/merchserved ./cmd/merchserved
//	go build -o bin/merchgate ./cmd/merchgate
//	go run ./scripts/gatesmoke -daemon bin/merchserved -gate bin/merchgate
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"merchandiser"
	"merchandiser/internal/gate"
	"merchandiser/internal/registry"
	"merchandiser/internal/serve"
	"merchandiser/internal/store"
)

const replicas = 2

func main() {
	daemon := flag.String("daemon", "bin/merchserved", "path to the merchserved binary")
	gateBin := flag.String("gate", "bin/merchgate", "path to the merchgate binary")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("gatesmoke: ")

	runLeg(*daemon, *gateBin, 0)
	runLeg(*daemon, *gateBin, 4096)
	fmt.Println("gatesmoke: PASS")
}

// runLeg runs one full fleet smoke. cacheEntries > 0 enables the
// response cache on both tiers and turns on the cache assertions.
func runLeg(daemon, gateBin string, cacheEntries int) {
	leg := "cache=off"
	if cacheEntries > 0 {
		leg = fmt.Sprintf("cache=%d", cacheEntries)
	}
	log.Printf("=== leg %s", leg)

	dir, err := os.MkdirTemp("", "gatesmoke-*")
	check(err, "temp dir")
	defer os.RemoveAll(dir)

	// Train once, publish v1, promote. v2 is the same quick model with a
	// different seed stamp — distinct bytes, so the reload's SHA-based
	// noop detection must see a real change.
	root := filepath.Join(dir, "registry")
	reg, err := registry.Open(root)
	check(err, "open registry")
	publish(reg, dir, "v1", 1)
	check(reg.Promote("v1"), "promote v1")
	log.Print("registry ready with v1 promoted")

	// published collects the SHA of every version the registry has
	// served; in the cache leg a response stamped with anything else is
	// stale by definition.
	published := sync.Map{} // sha -> version
	ent, err := reg.Verify("v1")
	check(err, "verify v1")
	published.Store(ent.SHA256, "v1")

	// Boot the fleet: two registry-backed replicas and the gate.
	var procs []*exec.Cmd
	var replicaAddrs []string
	planlogs := make([]string, replicas)
	for i := 0; i < replicas; i++ {
		addrfile := filepath.Join(dir, fmt.Sprintf("replica%d.addr", i))
		planlogs[i] = filepath.Join(dir, fmt.Sprintf("plans%d", i))
		args := []string{
			"-registry", root,
			"-addr", "127.0.0.1:0",
			"-addrfile", addrfile,
			"-planlog", planlogs[i],
			"-drain", "10s",
		}
		if cacheEntries > 0 {
			args = append(args, "-cache-entries", fmt.Sprint(cacheEntries))
		}
		cmd := exec.Command(daemon, args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		start(cmd, "start replica")
		procs = append(procs, cmd)
		replicaAddrs = append(replicaAddrs, "http://"+strings.TrimSpace(waitForFile(addrfile, 10*time.Second)))
	}
	defer killAll() // a panic still runs deferred calls
	gateAddrfile := filepath.Join(dir, "gate.addr")
	gateArgs := []string{
		"-backends", strings.Join(replicaAddrs, ","),
		"-addr", "127.0.0.1:0",
		"-addrfile", gateAddrfile,
		"-probe", "50ms",
		"-readmit", "1",
	}
	if cacheEntries > 0 {
		gateArgs = append(gateArgs, "-cache-entries", fmt.Sprint(cacheEntries))
	}
	gateCmd := exec.Command(gateBin, gateArgs...)
	gateCmd.Stdout = os.Stderr
	gateCmd.Stderr = os.Stderr
	start(gateCmd, "start gate")
	procs = append(procs, gateCmd)
	gateURL := "http://" + strings.TrimSpace(waitForFile(gateAddrfile, 10*time.Second))
	waitFor(gateURL+"/readyz", http.StatusOK, 10*time.Second)
	log.Printf("fleet up: %d replicas behind %s", replicas, gateURL)

	// Continuous traffic through the gate for the whole promotion window:
	// 4 clients, 8 sticky app keys, every response must be a 200. A
	// single failed request fails the smoke — that is the zero-drop bar.
	// In the cache leg every response's stamped SHA must also be a
	// published one — that is the zero-stale bar.
	var sent, failed, stale atomic.Int64
	stopTraffic := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stopTraffic:
					return
				default:
				}
				i++
				key := fmt.Sprintf("app-%d", (c*2+i)%8)
				res := place(gateURL, key)
				if !res.ok {
					failed.Add(1)
				} else if cacheEntries > 0 {
					if v, known := published.Load(res.sha); !known || v != res.version {
						stale.Add(1)
						log.Printf("stale response: stamped (%s, %s) is not a published (version, sha) pair", res.version, res.sha)
					}
				}
				sent.Add(1)
			}
		}(c)
	}

	// Let v1 traffic land in both plan logs first, so the audit trail has
	// a flip to show.
	waitForVersions(planlogs, "v1", 10*time.Second)

	// Live promotion: publish v2, promote, SIGHUP both replicas. The
	// published set grows BEFORE any replica can serve v2.
	publish(reg, dir, "v2", 2)
	ent, err = reg.Verify("v2")
	check(err, "verify v2")
	published.Store(ent.SHA256, "v2")
	shaV2 := ent.SHA256
	check(reg.Promote("v2"), "promote v2")
	for _, p := range procs[:replicas] {
		check(p.Process.Signal(syscall.SIGHUP), "SIGHUP replica")
	}
	log.Print("v2 promoted, replicas signaled")

	// The fleet view must converge on v2 while traffic keeps flowing.
	waitForFleetVersion(gateURL, "v2", 10*time.Second)
	waitForVersions(planlogs, "v2", 10*time.Second)
	close(stopTraffic)
	wg.Wait()
	if failed.Load() > 0 {
		fatalf("%d of %d requests failed across the live promotion — hot reload dropped traffic", failed.Load(), sent.Load())
	}
	if stale.Load() > 0 {
		fatalf("%d of %d responses were stamped with an unpublished model SHA — the cache served stale plans", stale.Load(), sent.Load())
	}
	log.Printf("zero drops: %d requests served across the v1->v2 promotion", sent.Load())

	if cacheEntries > 0 {
		cacheLegChecks(gateURL, shaV2)
	}

	// /replanz answers on every replica (empty epochs for this artifact).
	for _, a := range replicaAddrs {
		var rp serve.ReplanResponse
		getJSON(a+"/replanz", &rp)
		if rp.Version != "v2" || rp.Epochs == nil {
			fatalf("replica %s /replanz: %+v", a, rp)
		}
	}

	// Drain the fleet.
	for _, p := range procs {
		check(p.Process.Signal(syscall.SIGTERM), "SIGTERM")
	}
	for _, p := range procs {
		waitExit(p, 15*time.Second)
	}
	log.Print("fleet drained cleanly")

	// Audit trail: each replica's plan log must show v1 plans strictly
	// before v2 plans (the swap lands between plans), every record
	// carrying the artifact SHA the registry recorded.
	want := map[string]string{}
	for _, v := range []string{"v1", "v2"} {
		ent, err := reg.Verify(v)
		check(err, "verify "+v)
		want[v] = ent.SHA256
	}
	for i, dir := range planlogs {
		versions := auditVersions(dir, want)
		flip := strings.Join(dedup(versions), ",")
		if flip != "v1,v2" {
			fatalf("replica %d audit log shows versions %q, want a clean v1,v2 flip", i, flip)
		}
		log.Printf("replica %d audit log: %d plans, clean v1->v2 flip", i, len(versions))
	}
	log.Printf("leg %s OK", leg)
}

// cacheLegChecks asserts the cache-enabled leg's extra invariants after
// the fleet has converged on v2: the gate's cache landed hits during
// the run, and a deterministic repeat is served from cache already
// stamped with the new model.
func cacheLegChecks(gateURL, shaV2 string) {
	// An identical pair after convergence: the second must be a gate
	// cache hit carrying v2's SHA. Retry briefly — the first pair after
	// the flip may race the probers re-converging.
	deadline := time.Now().Add(10 * time.Second)
	for {
		place(gateURL, "epilogue")
		res := place(gateURL, "epilogue")
		if res.ok && res.cacheHit && res.sha == shaV2 {
			break
		}
		if time.Now().After(deadline) {
			fatalf("post-promotion repeat never served from cache with v2's SHA (ok=%v hit=%v sha=%q)", res.ok, res.cacheHit, res.sha)
		}
		time.Sleep(50 * time.Millisecond)
	}

	var fleet gate.FleetResponse
	getJSON(gateURL+"/fleetz", &fleet)
	if fleet.Cache == nil {
		fatalf("cache leg /fleetz has no cache block")
	}
	if fleet.Cache.Hits == 0 {
		fatalf("gate cache served zero hits across the run: %+v", fleet.Cache)
	}
	log.Printf("gate cache: %d hits / %d misses (%.0f%% hit rate), %d collapsed",
		fleet.Cache.Hits, fleet.Cache.Misses, 100*fleet.Cache.HitRate, fleet.Cache.Collapsed)
}

// publish trains/stamps a quick system and publishes it under version.
func publish(reg *registry.Registry, dir, version string, seed int64) {
	sys, err := merchandiser.NewSystem(merchandiser.DefaultSpec(), merchandiser.TrainQuick)
	check(err, "build system")
	sys.Meta.Seed = seed
	path := filepath.Join(dir, version+".artifact")
	check(sys.SaveFile(path), "save "+version)
	_, err = reg.Publish(version, path)
	check(err, "publish "+version)
}

// placeResult is one proxied request's verdict.
type placeResult struct {
	ok       bool
	cacheHit bool
	version  string
	sha      string
}

// place POSTs one placement request through the gate.
func place(base, key string) placeResult {
	body := `{"tasks":[{"name":"` + key + `/t0","t_pm_only":2,"t_dram_only":0.8,"total_accesses":4e6,"footprint_pages":300}]}`
	req, err := http.NewRequest(http.MethodPost, base+"/place", strings.NewReader(body))
	if err != nil {
		return placeResult{}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(gate.KeyHeader, key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return placeResult{}
	}
	defer resp.Body.Close()
	var out serve.PlacementResponse
	if json.NewDecoder(resp.Body).Decode(&out) != nil {
		return placeResult{}
	}
	return placeResult{
		ok:       resp.StatusCode == http.StatusOK && len(out.Tasks) == 1 && out.Makespan > 0,
		cacheHit: resp.Header.Get(gate.CacheHeader) == "hit",
		version:  out.ModelVersion,
		sha:      out.ModelSHA256,
	}
}

// auditVersions reads a replica's plan log in sequence order and returns
// each record's version, checking the stamped SHA against the registry.
func auditVersions(dir string, want map[string]string) []string {
	entries, err := os.ReadDir(dir)
	check(err, "read plan log")
	if len(entries) == 0 {
		fatalf("plan log %s is empty", dir)
	}
	var versions []string
	for _, e := range entries { // ReadDir sorts by name = plan sequence
		a, err := store.ReadFile(filepath.Join(dir, e.Name()))
		check(err, "decode plan artifact")
		rec, err := a.Plan()
		check(err, "validate plan record")
		sha, ok := want[rec.ModelVersion]
		if !ok {
			fatalf("plan %s stamped with unknown version %q", e.Name(), rec.ModelVersion)
		}
		if rec.ModelSHA256 != sha {
			fatalf("plan %s: version %s stamped sha %s, registry has %s", e.Name(), rec.ModelVersion, rec.ModelSHA256, sha)
		}
		versions = append(versions, rec.ModelVersion)
	}
	return versions
}

func dedup(s []string) []string {
	var out []string
	for _, v := range s {
		if len(out) == 0 || out[len(out)-1] != v {
			out = append(out, v)
		}
	}
	return out
}

// waitForVersions waits until every plan log contains a record stamped
// with version.
func waitForVersions(dirs []string, version string, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		have := 0
		for _, d := range dirs {
			entries, err := os.ReadDir(d)
			if err != nil {
				continue
			}
			for i := len(entries) - 1; i >= 0; i-- { // newest first
				a, err := store.ReadFile(filepath.Join(d, entries[i].Name()))
				if err != nil {
					continue // mid-write; the next poll sees it
				}
				if rec, err := a.Plan(); err == nil && rec.ModelVersion == version {
					have++
					break
				}
			}
		}
		if have == len(dirs) {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	fatalf("not every replica served a %s-planned request within %s", version, timeout)
}

// waitForFleetVersion waits until the gate's /fleetz shows every replica
// healthy on version.
func waitForFleetVersion(gateURL, version string, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var fleet gate.FleetResponse
		getJSON(gateURL+"/fleetz", &fleet)
		n := 0
		for _, b := range fleet.Backends {
			if b.Healthy && b.Version == version {
				n++
			}
		}
		if n == replicas {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	fatalf("gate fleet view never converged on %s", version)
}

func getJSON(url string, out any) {
	resp, err := http.Get(url)
	check(err, "GET "+url)
	defer resp.Body.Close()
	check(json.NewDecoder(resp.Body).Decode(out), "decode "+url)
}

func waitFor(url string, status int, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if resp, err := http.Get(url); err == nil {
			resp.Body.Close()
			if resp.StatusCode == status {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	fatalf("%s never answered %d", url, status)
}

func waitExit(cmd *exec.Cmd, timeout time.Duration) {
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	select {
	case err := <-done:
		check(err, "process exit status")
	case <-ctx.Done():
		fatalf("process did not exit within the drain budget")
	}
}

func waitForFile(path string, timeout time.Duration) string {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(path); err == nil && len(bytes.TrimSpace(data)) > 0 {
			return string(data)
		}
		time.Sleep(20 * time.Millisecond)
	}
	fatalf("process never wrote %s", path)
	return ""
}

// daemons is every process this smoke started. log.Fatal exits without
// running deferred calls, so every failure path goes through fatalf,
// which kills and reaps them first: a failing smoke leaves no daemon
// running. Only the main goroutine starts daemons or fails.
var daemons []*exec.Cmd

// start launches cmd and records it for fatalf.
func start(cmd *exec.Cmd, what string) {
	check(cmd.Start(), what)
	daemons = append(daemons, cmd)
}

// killAll kills and reaps every started daemon that is still running.
func killAll() {
	for _, c := range daemons {
		if c.Process.Kill() == nil {
			// Reap it; a killed daemon's exit status carries nothing.
			_, _ = c.Process.Wait()
		}
	}
}

// fatalf kills every started daemon, then logs and exits 1.
func fatalf(format string, args ...any) {
	killAll()
	log.Fatalf(format, args...)
}

func check(err error, what string) {
	if err != nil {
		fatalf("%s: %v", what, err)
	}
}
