package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fingerprint identifies the host and code a run measured, so a run
// slowed by co-tenants can be told apart from a slower program.
type fingerprint struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"numcpu"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	StealShare float64 `json:"steal_share"`
}

func hostFingerprint(root string, steal float64) fingerprint {
	return fingerprint{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Commit:     commit(root),
		StealShare: steal,
	}
}

// commit is the VCS revision stamped into the binary when it was built
// inside a git work tree; elsewhere it is a digest of the Go sources the
// binary was built from.
func commit(root string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path) // path is under root by construction
		h.Write([]byte(rel))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// usage is a point-in-time reading of the process's CPU time and the
// host's CPU counters; the difference of two readings covers a phase.
type usage struct {
	wall       time.Time
	cpu        time.Duration // process user + system
	hostTotal  uint64        // /proc/stat jiffies, all states
	hostStolen uint64        // /proc/stat steal jiffies
}

func readUsage() usage {
	u := usage{wall: time.Now()}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	u.hostTotal, u.hostStolen = procStat()
	return u
}

// procStat sums the aggregate "cpu" line of /proc/stat (user through
// steal) and returns it with the steal field. Hosts without /proc read 0.
func procStat() (total, steal uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

// phase is what happened between two readings.
type phase struct {
	wall, cpu float64 // seconds
	steal     float64 // share of host CPU time stolen by the hypervisor
}

func since(start usage) phase {
	end := readUsage()
	return phase{
		wall:  end.wall.Sub(start.wall).Seconds(),
		cpu:   (end.cpu - start.cpu).Seconds(),
		steal: share(float64(end.hostStolen-start.hostStolen), float64(end.hostTotal-start.hostTotal)),
	}
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// Heavy hypervisor steal comes in regimes lasting minutes, during which
// every timing is inflated by tens of percent. The timed work is
// therefore measured in segments, and a segment that lost more than
// stealLimit of the host's CPU time is measured again (with fresh
// inputs), up to half as many extra segments as were needed, rounded
// up.
const stealLimit = 0.03

// gating counts how the timed segments of a run were kept.
type gating struct {
	Needed    int `json:"needed"`
	Attempted int `json:"attempted"`
	Quiet     int `json:"quiet"` // kept segments within stealLimit
}

// gated calls attempt(0), attempt(1), ... until need attempts stayed
// within stealLimit or need + ⌈need/2⌉ attempts were made, and returns
// the indices of the attempts to keep, in order: the quiet ones, topped
// up with the least-stolen others.
func gated(need int, attempt func(i int) (phase, error)) ([]int, gating, error) {
	var quiet, noisy []int
	var steal []float64
	for i := 0; len(quiet) < need && i < need+(need+1)/2; i++ {
		ph, err := attempt(i)
		if err != nil {
			return nil, gating{}, err
		}
		steal = append(steal, ph.steal)
		if ph.steal <= stealLimit {
			quiet = append(quiet, i)
		} else {
			noisy = append(noisy, i)
		}
	}
	g := gating{Needed: need, Attempted: len(steal), Quiet: len(quiet)}
	sort.SliceStable(noisy, func(a, b int) bool { return steal[noisy[a]] < steal[noisy[b]] })
	keep := append(quiet, noisy[:need-len(quiet)]...)
	sort.Ints(keep)
	return keep, g, nil
}
