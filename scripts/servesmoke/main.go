// Command servesmoke is check.sh's end-to-end save/load/serve smoke
// test: it checkpoints a System to an artifact, starts a real
// merchserved process on a free port, verifies /healthz, /readyz,
// /metricsz and one /place request (stamped with the artifact's file
// name as model version and its SHA-256), then SIGTERMs the daemon
// and asserts a clean drain (exit code 0) and a decodable plan log.
//
//	go build -o bin/merchserved ./cmd/merchserved
//	go run ./scripts/servesmoke -daemon bin/merchserved
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
	"syscall"
	"time"

	"merchandiser"
	"merchandiser/internal/serve"
	"merchandiser/internal/store"
)

func main() {
	daemon := flag.String("daemon", "bin/merchserved", "path to the merchserved binary")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("servesmoke: ")

	dir, err := os.MkdirTemp("", "servesmoke-*")
	check(err, "temp dir")
	defer os.RemoveAll(dir)

	// Save: checkpoint a quick-trained system through the public artifact
	// surface, in the binary slot format — the daemon below restores the
	// model straight into its inference tables, so the smoke covers the
	// compile-free cold-start path end to end.
	artifact := filepath.Join(dir, "sys.artifact")
	sys, err := merchandiser.NewSystem(merchandiser.DefaultSpec(), merchandiser.TrainQuick)
	check(err, "build system")
	check(sys.SaveFile(artifact), "save artifact")
	log.Print("artifact saved (binary)")

	// Load + serve: a real daemon process on a kernel-picked port.
	addrfile := filepath.Join(dir, "addr")
	planlog := filepath.Join(dir, "plans")
	cmd := exec.Command(*daemon,
		"-artifact", artifact,
		"-addr", "127.0.0.1:0",
		"-addrfile", addrfile,
		"-planlog", planlog,
		"-drain", "10s",
	)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	boot := time.Now()
	start(cmd, "start daemon")
	defer killAll() // a panic still runs deferred calls

	addr := waitForFile(addrfile, 10*time.Second)
	base := "http://" + strings.TrimSpace(addr)

	// Boot-to-ready: process start to the first /readyz 200, which
	// includes the binary artifact restore. The wall is logged rather
	// than gated (CI machines vary), but a restore regression back to
	// seconds would trip the 10s deadline.
	waitForReady(base+"/readyz", 10*time.Second)
	log.Printf("daemon up at %s (boot-to-ready %s)", base, time.Since(boot).Round(time.Millisecond))

	expectGet(base+"/healthz", http.StatusOK)
	expectGet(base+"/metricsz", http.StatusOK)

	// One placement request through the planner, planned alone.
	req := serve.PlacementRequest{Tasks: []serve.TaskRequest{{
		Name: "smoke", TPmOnly: 2.0, TDramOnly: 0.8,
		TotalAccesses: 4e6, FootprintPages: 300,
	}}}
	raw, err := json.Marshal(req)
	check(err, "marshal request")
	resp, err := http.Post(base+"/place", "application/json", bytes.NewReader(raw))
	check(err, "POST /place")
	var out serve.PlacementResponse
	check(json.NewDecoder(resp.Body).Decode(&out), "decode response")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fatalf("/place answered %d", resp.StatusCode)
	}
	if len(out.Tasks) != 1 || out.Tasks[0].Name != "smoke" || out.BatchSize != 1 {
		fatalf("/place returned a bad plan: %+v", out)
	}
	if out.Tasks[0].Predicted <= 0 || out.Makespan <= 0 {
		fatalf("/place predicted nothing: %+v", out)
	}
	// An -artifact daemon names its model after the file.
	wantSHA, _, err := store.FileSHA256(artifact)
	check(err, "hash artifact")
	if out.ModelVersion != filepath.Base(artifact) || out.ModelSHA256 != wantSHA {
		fatalf("/place stamped model %q sha %q, want %q sha %q",
			out.ModelVersion, out.ModelSHA256, filepath.Base(artifact), wantSHA)
	}
	log.Printf("placement served (makespan %.3fs)", out.Makespan)

	// An invalid request must answer 400, not crash the daemon.
	resp, err = http.Post(base+"/place", "application/json", strings.NewReader(`{"tasks":[{"name":"bad","t_pm_only":-1}]}`))
	check(err, "POST invalid /place")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		fatalf("invalid request answered %d, want 400", resp.StatusCode)
	}

	// Drain: SIGTERM must exit 0 within the budget.
	check(cmd.Process.Signal(syscall.SIGTERM), "SIGTERM")
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	select {
	case err := <-done:
		check(err, "daemon exit status")
	case <-ctx.Done():
		fatalf("daemon did not drain within 15s of SIGTERM")
	}
	log.Print("daemon drained cleanly")

	// The plan log must hold at least one decodable plan artifact.
	entries, err := os.ReadDir(planlog)
	check(err, "read plan log")
	if len(entries) == 0 {
		fatalf("plan log is empty")
	}
	a, err := store.ReadFile(filepath.Join(planlog, entries[0].Name()))
	check(err, "decode plan artifact")
	rec, err := a.Plan()
	check(err, "validate plan record")
	if len(rec.Tasks) == 0 || rec.Tasks[0] != "smoke" {
		fatalf("plan log mangled: %+v", rec)
	}
	fmt.Println("servesmoke: PASS")
}

func expectGet(url string, want int) {
	resp, err := http.Get(url)
	check(err, "GET "+url)
	resp.Body.Close()
	if resp.StatusCode != want {
		fatalf("GET %s answered %d, want %d", url, resp.StatusCode, want)
	}
}

func waitForReady(url string, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if resp, err := http.Get(url); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	fatalf("daemon never answered 200 on %s", url)
}

func waitForFile(path string, timeout time.Duration) string {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(path); err == nil && len(bytes.TrimSpace(data)) > 0 {
			return string(data)
		}
		time.Sleep(20 * time.Millisecond)
	}
	fatalf("daemon never wrote %s", path)
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
