// Command benchjson records benchmark runs as a machine-readable
// `BENCH_*.json` document (schema v2): per-run raw samples for every
// metric (ns/op, B/op, allocs/op, custom units) plus the Rule 9
// environment block and provenance, so performance claims ship with
// the raw data behind them (Rule 1) and the regression gate
// (cmd/benchgate) has real sample sets to test, not bare means.
//
// Two modes:
//
//	# collector mode: run the benchmarks itself, N repetitions each
//	benchjson -count 5 -bench 'BenchmarkSuiteRun' -o BENCH_harness.json .
//
//	# pipe mode (legacy): convert existing `go test -bench` output
//	go test -bench=. -benchmem -count=5 ./... | benchjson > BENCH.json
//
// With -count N the tool execs `go test -run '^$' -bench <pattern>
// -benchmem -count N` over the given packages (default ".") and groups
// the N repeated result lines per benchmark into sample columns. The
// paper's §4.2.2 point stands here: one run is an anecdote; the gate
// needs repetitions to bound medians nonparametrically.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/regress"
)

func main() {
	var (
		count     = flag.Int("count", 0, "run benchmarks with `N` repetitions (0 = parse stdin)")
		benchPat  = flag.String("bench", ".", "benchmark `regexp` passed to go test -bench")
		benchTime = flag.String("benchtime", "", "go test -benchtime value (e.g. 0.5s, 100x)")
		out       = flag.String("o", "", "write the report to `file` (atomically) instead of stdout")
	)
	flag.Parse()
	if err := run(*count, *benchPat, *benchTime, *out, flag.Args()); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

func run(count int, benchPat, benchTime, out string, pkgs []string) error {
	var rep *regress.Report
	var err error
	var tool string
	if count > 0 {
		rep, err = collect(count, benchPat, benchTime, pkgs)
		tool = fmt.Sprintf("benchjson -count %d -bench %q", count, benchPat)
	} else {
		rep, err = regress.ParseBench(os.Stdin)
		tool = "benchjson (stdin)"
	}
	if err != nil {
		return err
	}
	rep.Count = maxRuns(rep)
	// Parsed header values (cpu model etc.) win over the generic
	// collector-side block.
	env := regress.CaptureEnv()
	for k, v := range rep.Env {
		env[k] = v
	}
	rep.Env = env
	rep.Provenance = &regress.Provenance{
		Commit:         gitCommit(),
		Date:           time.Now().UTC().Format(time.RFC3339),
		EnvFingerprint: regress.EnvFingerprint(env),
		Tool:           tool,
	}
	if out == "" {
		return rep.WriteJSON(os.Stdout)
	}
	return writeAtomic(out, rep)
}

// collect execs `go test` and parses its benchmark output, teeing the
// raw text to stderr so a long -count run shows progress.
func collect(count int, benchPat, benchTime string, pkgs []string) (*regress.Report, error) {
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	args := []string{"test", "-run", "^$", "-bench", benchPat, "-benchmem",
		"-count", strconv.Itoa(count)}
	if benchTime != "" {
		args = append(args, "-benchtime", benchTime)
	}
	args = append(args, pkgs...)
	cmd := exec.Command("go", args...)
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(&stdout, os.Stderr)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	return regress.ParseBench(&stdout)
}

func maxRuns(rep *regress.Report) int {
	max := 0
	for _, r := range rep.Results {
		if r.Runs() > max {
			max = r.Runs()
		}
	}
	return max
}

// gitCommit returns the current short commit hash, or "" outside a
// repository.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// writeAtomic publishes the report with campaign.PublishFile so a
// crashed run never leaves a torn baseline.
func writeAtomic(path string, rep *regress.Report) error {
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return err
	}
	return campaign.PublishFile(path, buf.Bytes())
}
