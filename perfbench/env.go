package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// environment is the Rule 9 block every result carries.
type environment struct {
	NumCPU      int
	GOMAXPROCS  int
	Effective   float64 // effective parallelism from the two-goroutine spin test
	CPUModel    string
	GoVersion   string
	Commit      string
	Seed        uint64
	Workers     string
	SpinSingle  time.Duration
	SpinPaired  time.Duration
	BuildTarget string
}

func probeEnvironment(opt options, settings string) environment {
	e := environment{
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		CPUModel:    cpuModel(),
		GoVersion:   runtime.Version(),
		Commit:      commit(),
		Seed:        opt.seed,
		Workers:     settings,
		BuildTarget: runtime.GOOS + "/" + runtime.GOARCH,
	}
	e.Effective, e.SpinSingle, e.SpinPaired = effectiveParallelism()
	return e
}

func (e environment) write(w io.Writer) {
	fmt.Fprintf(w, "env: nproc=%d GOMAXPROCS=%d effective_parallelism=%.2f (spin: 1 goroutine %.1f ms, 2 goroutines %.1f ms)\n",
		e.NumCPU, e.GOMAXPROCS, e.Effective,
		float64(e.SpinSingle)/1e6, float64(e.SpinPaired)/1e6)
	fmt.Fprintf(w, "env: cpu=%q go=%s %s commit=%s\n", e.CPUModel, e.GoVersion, e.BuildTarget, e.Commit)
	fmt.Fprintf(w, "env: seed=%d %s\n", e.Seed, e.Workers)
}

// spinWork is a fixed amount of integer work the compiler cannot remove.
func spinWork(n int) uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

var spinSink uint64

// effectiveParallelism calibrates a spin loop to about 50 ms on one
// goroutine, then runs it on two goroutines at once: 2·t1/t2 is the
// number of cores the process actually got (≈1 on a box whose second
// core is busy, ≈2 when both are free). The best of five trials is kept
// on each side, so a single preemption does not decide the figure.
func effectiveParallelism() (float64, time.Duration, time.Duration) {
	n := 1 << 20
	for {
		t := time.Now()
		spinSink += spinWork(n)
		if time.Since(t) > 50*time.Millisecond || n > 1<<30 {
			break
		}
		n *= 2
	}
	best := func(f func()) time.Duration {
		b := time.Duration(1<<63 - 1)
		for i := 0; i < 5; i++ {
			t := time.Now()
			f()
			if d := time.Since(t); d < b {
				b = d
			}
		}
		return b
	}
	single := best(func() { spinSink += spinWork(n) })
	paired := best(func() {
		var wg sync.WaitGroup
		var out [2]uint64
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				out[g] = spinWork(n)
			}(g)
		}
		wg.Wait()
		spinSink += out[0] + out[1]
	})
	return 2 * float64(single) / float64(paired), single, paired
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the code under test: the VCS revision stamped into the
// binary when it was built inside a git work tree, otherwise a hash of
// the repository's Go sources and module file (a checkout without git
// metadata still identifies what it measured).
func commit() string {
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
				return rev + "+dirty"
			}
			return rev
		}
	}
	root := ".."
	if _, err := os.Stat(filepath.Join("perfbench", "go.mod")); err == nil {
		root = "." // run from the repository root, as run.sh does
	}
	return "src:" + sourceHash(root)
}

// sourceHash hashes every .go file and go.mod under root in path order.
func sourceHash(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
