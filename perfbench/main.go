// Command perfbench is the repository's end-to-end benchmark. It drives
// four user paths — `figures all`, an `mpibench` sweep, a `scibench
// serve` sweep and a sharded, journaled `scibench campaign` — through
// their public Go functions from one process, checks their outputs, and
// prints one JSON result line.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result carries the end-to-end metrics of an
// untraced run. With --trace 1 the run is split into an untraced half
// and a traced half; the traced half records spans in memory, calls the
// inner layers directly on the same inputs, and the result carries the
// per-layer metrics. See README.md in this directory for the workloads,
// the metric definitions and the layer map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// processStart approximates process start for the set-up report: package
// initialisation runs before main.
var processStart = time.Now()

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow repetition on a shared machine does not move it.
const setupReps = 7

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in BENCHMARK.json order.
// op_p90_ms and error_rate are printed in the human-readable block only:
// op_p90_ms exists only on runs with at least 100 ops, and error_rate is 0
// on a healthy run (it is carried by the result's failed/attempted).
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s"},
	{"op_p50_ms", "ms"},
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
	{"alloc_mb_per_op", "MB"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opTime is one completed op: its wall time and error, if any.
type opTime struct {
	dur time.Duration
	err error
}

// workload drives one user path. A run calls setup setupReps times, then
// step until the timed window closes (a step ends at a boundary where
// stopping leaves the op mix unbiased), then verify after the window.
type workload interface {
	// setup builds the workload's inputs from the seed, prepares its
	// state and runs one untimed warm-up op; each call starts afresh.
	setup(ctx context.Context) error
	// step runs the next group of ops and returns one entry per op.
	step(ctx context.Context) []opTime
	// verify checks every op run so far and returns how many failed.
	verify(ctx context.Context) (failed int, err error)
	// probe calls the layers this workload reaches only indirectly,
	// directly on the same generated inputs (traced runs only).
	probe(ctx context.Context, t *traceRun) error
	// settings describes the worker settings and journal format.
	settings() string
}

// size selects the input sizes: paper sizes for the benchmark, small ones
// for the self-tests and warm-ups.
type size int

const (
	paperSize size = iota
	smallSize
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	size     size
	out      string // directory for traces and scratch state
}

func newWorkload(opt options, dir string) (workload, error) {
	switch opt.workload {
	case "paper-figures":
		return newFiguresWorkload(opt.seed, opt.size), nil
	case "mpibench-sweep":
		return newMPIWorkload(opt.seed, opt.size), nil
	case "serve-sweep":
		return newServeWorkload(opt.seed, opt.size), nil
	case "campaign-sweep":
		return newCampaignWorkload(opt.seed, opt.size, dir), nil
	}
	return nil, fmt.Errorf("unknown workload %q (%s)", opt.workload, strings.Join(allWorkloads, "|"))
}

// workloadNames are the workloads BENCHMARK.json declares.
var workloadNames = []string{"paper-figures", "mpibench-sweep", "serve-sweep"}

// ungatedWorkloads run on request but are not declared in BENCHMARK.json.
// campaign-sweep waits on an fsync per journal record; on a shared disk
// its timings followed the host's disk latency, and over ten runs the
// spread of ops_per_s and op_p50_ms was 35% and 54% of the median, wider
// than any bound a regression gate can hold (v2's group commit still
// spread 39% and 46% over five). It remains the measurement of the
// journal, campaign and shard layers, run by hand.
var ungatedWorkloads = []string{"campaign-sweep"}

var allWorkloads = append(append([]string(nil), workloadNames...), ungatedWorkloads...)

// window is one timed window: ops, their wall time, and the process
// counters over it.
type window struct {
	ops     []opTime
	steps   int
	rss     []float64 // peak resident MB of each step
	rates   []float64 // ops per second of each step
	wall    time.Duration
	mem0    runtime.MemStats
	mem1    runtime.MemStats
	counts0 telemetry.Snapshot
	counts1 telemetry.Snapshot
}

func (w *window) failed() int {
	n := 0
	for _, o := range w.ops {
		if o.err != nil {
			n++
		}
	}
	return n
}

// opsPerSec is the median over steps of each step's ops ÷ wall time. A
// step ends at a boundary (a figures pass, a preset rotation, a campaign
// sweep with its merge), so per-step work is inside every rate; the
// median keeps one step slowed by a neighbour on a shared machine from
// moving the figure.
func (w *window) opsPerSec() float64 { return median(w.rates) }

// counter returns a counter's delta over the window.
func (w *window) counter(name string) float64 {
	return float64(w.counts1.Counters[name] - w.counts0.Counters[name])
}

// histSum returns the delta of a histogram's count and value sum.
func (w *window) histSum(name string) (count, sum float64) {
	h0, h1 := w.counts0.Histograms[name], w.counts1.Histograms[name]
	return float64(h1.Count - h0.Count), float64(h1.Count)*h1.Mean - float64(h0.Count)*h0.Mean
}

// timedWindow steps w until the window has lasted at least seconds.
func timedWindow(ctx context.Context, w workload, seconds float64) (*window, error) {
	win := &window{}
	runtime.GC()
	runtime.ReadMemStats(&win.mem0)
	win.counts0 = telemetry.Default().Snapshot()
	rss := startRSSSampler()
	defer rss.close()
	rss.take()
	start := time.Now()
	for time.Since(start).Seconds() < seconds {
		// Each step starts from a collected heap, as a fresh CLI run does,
		// so a step's peak does not depend on garbage left by the last one.
		runtime.GC()
		t := time.Now()
		ops := w.step(ctx)
		win.rates = append(win.rates, float64(len(ops))/time.Since(t).Seconds())
		if len(ops) == 0 {
			return nil, fmt.Errorf("workload step ran no op")
		}
		win.ops = append(win.ops, ops...)
		win.steps++
		win.rss = append(win.rss, rss.take())
	}
	win.wall = time.Since(start)
	runtime.ReadMemStats(&win.mem1)
	win.counts1 = telemetry.Default().Snapshot()
	return win, nil
}

// quantile is the linear-interpolation quantile of xs (sorted in place).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	h := p * float64(len(xs)-1)
	lo := math.Floor(h)
	if int(lo)+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[int(lo)] + (h-lo)*(xs[int(lo)+1]-xs[int(lo)])
}

func opMillis(ops []opTime) []float64 {
	ms := make([]float64, 0, len(ops))
	for _, o := range ops {
		ms = append(ms, float64(o.dur)/float64(time.Millisecond))
	}
	return ms
}

// rssSampler tracks the peak resident set of each step by reading
// /proc/self/statm every rssInterval while a window runs. The reported
// figure is the median of the per-step peaks: the process-lifetime
// high-water mark (VmHWM) is one maximum, and moves with whichever step
// the garbage collector happened to fall behind in.
type rssSampler struct {
	peak atomic.Int64 // bytes since the last take
	stop chan struct{}
	done chan struct{}
}

const rssInterval = 2 * time.Millisecond

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return
	}
	v := pages * int64(os.Getpagesize())
	for {
		old := s.peak.Load()
		if v <= old || s.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// take returns the peak in MB (10⁶ bytes) since the previous take.
func (s *rssSampler) take() float64 {
	s.sample()
	return float64(s.peak.Swap(0)) / 1e6
}

func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
}

// vmHWM returns the process's lifetime peak resident set in MB.
func vmHWM() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// report is everything a run measured, for the JSON line and the
// human-readable block.
type report struct {
	opt       options
	env       environment
	setups    []float64
	firstOp   time.Duration
	untraced  *window
	traced    *traceRun
	verifyErr error
	findings  []string // statistical headline findings that did not hold
	failed    int
	attempted int
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// endToEndMetrics computes the untraced run's metrics.
func (r *report) endToEndMetrics() map[string]metric {
	w := r.untraced
	ms := opMillis(w.ops)
	alloc := float64(w.mem1.TotalAlloc-w.mem0.TotalAlloc) / 1e6 / float64(len(w.ops))
	return map[string]metric{
		"ops_per_s":       {w.opsPerSec(), "ops/s"},
		"op_p50_ms":       {quantile(ms, 0.5), "ms"},
		"setup_s":         {median(r.setups), "s"},
		"rss_peak_mb":     {median(w.rss), "MB"},
		"alloc_mb_per_op": {alloc, "MB"},
	}
}

func run(ctx context.Context, opt options) (*report, error) {
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opt.out, "work-"+opt.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	w, err := newWorkload(opt, dir)
	if err != nil {
		return nil, err
	}

	r := &report{opt: opt}
	for k := 0; k < setupReps; k++ {
		t := time.Now()
		if err := w.setup(ctx); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.setups = append(r.setups, time.Since(t).Seconds())
	}
	r.firstOp = time.Since(processStart)

	untracedSeconds := opt.seconds
	if opt.trace {
		untracedSeconds = opt.seconds / 2
	}
	if r.untraced, err = timedWindow(ctx, w, untracedSeconds); err != nil {
		return nil, err
	}
	r.attempted, r.failed = len(r.untraced.ops), r.untraced.failed()
	if opt.trace {
		if r.traced, err = runTraced(ctx, w, opt, r.untraced); err != nil {
			return nil, err
		}
		r.attempted += len(r.traced.win.ops)
		r.failed += r.traced.win.failed()
	}
	r.env = probeEnvironment(opt, w.settings())

	vf, verr := w.verify(ctx)
	r.failed += vf
	r.verifyErr = verr
	if fw, ok := w.(interface{ findings() []string }); ok {
		r.findings = fw.findings()
	}
	if r.traced != nil && r.traced.bypassErr != nil && r.verifyErr == nil {
		r.verifyErr = r.traced.bypassErr
	}
	return r, nil
}

func (r *report) result() result {
	res := result{
		Correct:   r.failed == 0 && r.verifyErr == nil,
		Attempted: r.attempted,
		Failed:    min(r.failed, r.attempted),
	}
	if r.traced != nil {
		res.Metrics = r.traced.metrics
	} else {
		res.Metrics = r.endToEndMetrics()
	}
	return res
}

// writeHuman prints the environment, every end-to-end metric by name
// with its unit, and the verification outcome.
func (r *report) writeHuman(w io.Writer) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v\n", r.opt.workload, r.opt.seed, r.opt.seconds, r.opt.trace)
	r.env.write(w)
	win := r.untraced
	fmt.Fprintf(w, "untraced window: %d ops in %.3f s\n", len(win.ops), win.wall.Seconds())
	e2e := r.endToEndMetrics()
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-16s %14.6g %s\n", d.name, e2e[d.name].Value, d.unit)
	}
	ms := opMillis(win.ops)
	if len(ms) >= 100 {
		fmt.Fprintf(w, "  %-16s %14.6g ms (n=%d ops)\n", "op_p90_ms", quantile(ms, 0.9), len(ms))
	} else {
		fmt.Fprintf(w, "  %-16s %14s    (n=%d ops < 100: fewer than 10 ops beyond p90)\n", "op_p90_ms", "n/a", len(ms))
	}
	fmt.Fprintf(w, "  %-16s %14.6g fraction (%d of %d ops failed)\n", "error_rate",
		float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
	fmt.Fprintf(w, "  %-16s %14.6g s (process start to first timed op; setup_s is the median of %d set-ups)\n",
		"first_op_s", r.firstOp.Seconds(), setupReps)
	fmt.Fprintf(w, "  %-16s %14.6g MB (process lifetime VmHWM, verification included; rss_peak_mb is the median per-step peak over %d steps)\n",
		"vmhwm_mb", vmHWM(), len(win.rss))
	if r.traced != nil {
		fmt.Fprintf(w, "traced window: %d ops in %.3f s, %d spans written to %s\n",
			len(r.traced.win.ops), r.traced.win.wall.Seconds(), len(r.traced.spans), r.traced.path)
		keys := make([]string, 0, len(r.traced.metrics))
		for k := range r.traced.metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  %-30s %14.6g %s\n", k, r.traced.metrics[k].Value, r.traced.metrics[k].Unit)
		}
	}
	if len(r.findings) > 0 {
		fmt.Fprintf(w, "headline findings that did not hold on this seed (reported, not failed):\n")
		for _, f := range r.findings {
			fmt.Fprintf(w, "  %s\n", f)
		}
	}
	if r.verifyErr != nil {
		fmt.Fprintf(w, "verification FAILED: %v\n", r.verifyErr)
	} else if r.failed > 0 {
		fmt.Fprintf(w, "verification FAILED: %d op(s) failed\n", r.failed)
	} else {
		fmt.Fprintln(w, "verification passed")
	}
}

func main() {
	var opt options
	flag.StringVar(&opt.workload, "workload", "", "workload: "+strings.Join(workloadNames, "|")+
		" (also, not in BENCHMARK.json: "+strings.Join(ungatedWorkloads, "|")+")")
	flag.Uint64Var(&opt.seed, "seed", 1, "input seed; op i uses seed+i")
	flag.Float64Var(&opt.seconds, "seconds", 10, "length of the timed window")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&opt.out, "out", ".bench_build", "directory for traces and scratch state")
	flag.Parse()
	opt.trace = *traceFlag == 1
	if flag.NArg() > 0 || opt.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		flag.Usage()
		os.Exit(2)
	}
	out, err := filepath.Abs(opt.out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	opt.out = out

	r, err := run(context.Background(), opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	r.writeHuman(os.Stdout)
	res := r.result()
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}
