package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/telemetry"
)

// layer is one layer group of the per-layer split.
type layer int

const (
	layerCluster layer = iota
	layerServe
	layerBench
	layerSuite
	layerAnalysis
	layerReport
	layerWorkloads
	layerCampaign
	layerShard
	layerOther
	numLayers
)

// layerNames name the share.* metrics: cluster; desim+serve;
// bench; suite; stats/ci/htest/qreg; report; workloads; campaign; shard;
// and other (code outside the named layers, such as the figure
// generators themselves, plus anything no probe could attribute).
var layerNames = [numLayers]string{
	"cluster", "desim_serve", "bench", "suite", "analysis",
	"report", "workloads", "campaign", "shard", "other",
}

// spanLayer maps a span name to the layer its self time belongs to.
// Program spans: sweep/config (suite), collection (bench), analysis
// (bench's statistics: the analysis group), campaign, shard. Benchmark
// spans: "op" belongs to the workload's entry layer, "report" wraps a
// report or JSON render, "shard.merge" wraps Merge+WriteMerged.
func spanLayer(name string, entry layer) layer {
	switch name {
	case "sweep", "config":
		return layerSuite
	case "collection":
		return layerBench
	case "analysis":
		return layerAnalysis
	case "campaign":
		return layerCampaign
	case "shard", "shard.merge", "shard.create":
		return layerShard
	case "report":
		return layerReport
	case "op":
		return entry
	}
	return layerOther
}

// perLayer are the metrics of a traced run, in BENCHMARK.json order.
var perLayer = []metricDef{
	{"cluster.new_calls", "count"},
	{"cluster.new_us", "us"},
	{"cluster.new_kb", "kB"},
	{"cluster.messages", "count"},
	{"cluster.ns_per_message", "ns"},
	{"bench.samples", "count"},
	{"bench.loop_ns_per_sample", "ns"},
	{"bench.analysis_us", "us"},
	{"bench.useful_frac", "fraction"},
	{"serve.requests", "count"},
	{"serve.run_ns_per_request", "ns"},
	{"serve.schedule_ns_per_arrival", "ns"},
	{"serve.batches", "count"},
	{"serve.completed_frac", "fraction"},
	{"hist.record_ns", "ns"},
	{"ci.quantile_hist_us", "us"},
	{"hpl.run_ms", "ms"},
	{"analysis.ms_per_op", "ms"},
	{"stats.summarize_ms", "ms"},
	{"ci.median_ci_ms", "ms"},
	{"htest.kruskal_wallis_ms", "ms"},
	{"qreg.two_group_ms", "ms"},
	{"report.render_ms", "ms"},
	{"campaign.records", "count"},
	{"campaign.append_us", "us"},
	{"campaign.append_us_p99", "us"},
	{"campaign.fsyncs_per_record", "count"},
	{"campaign.fsync_wait_frac", "fraction"},
	{"campaign.bytes_per_record", "B"},
	{"campaign.replay_records_per_s", "1/s"},
	{"campaign.resume_ms", "ms"},
	{"shard.exec_overhead_ms", "ms"},
	{"shard.merge_ms", "ms"},
	{"suite.config_us", "us"},
	{"suite.self_ms_per_op", "ms"},
	{"gc.cycles_per_op", "count"},
	{"gc.pause_ms_per_op", "ms"},
	{"trace.overhead_frac", "fraction"},
	{"share.cluster", "fraction"},
	{"share.desim_serve", "fraction"},
	{"share.bench", "fraction"},
	{"share.suite", "fraction"},
	{"share.analysis", "fraction"},
	{"share.report", "fraction"},
	{"share.workloads", "fraction"},
	{"share.campaign", "fraction"},
	{"share.shard", "fraction"},
	{"share.other", "fraction"},
}

// memSink keeps every span in memory; they are written out at the end.
type memSink struct {
	mu    sync.Mutex
	spans []telemetry.Span
}

func (s *memSink) WriteSpan(sp telemetry.Span) {
	s.mu.Lock()
	s.spans = append(s.spans, sp)
	s.mu.Unlock()
}

// traceRun is the traced half of a --trace 1 run.
type traceRun struct {
	win      *window
	steps    int // steps in the traced window (figures: passes)
	spans    []telemetry.Span
	path     string
	metrics  map[string]metric
	layerSec [numLayers]float64
	total    float64

	// Probe results other layers' attribution uses.
	newUs, newKB float64
	newN         int
	nsPerMessage float64
	bypassErr    error
}

// set records one per-layer metric.
func (t *traceRun) set(name string, v float64, unit string) { t.metrics[name] = metric{v, unit} }

// move re-attributes up to sec seconds of self time from one layer to
// another: a probe measured the time of a call made inside a span of
// the source layer. It never moves more than the source holds.
func (t *traceRun) move(from, to layer, sec float64) {
	sec = max(min(sec, t.layerSec[from]), 0)
	t.layerSec[from] -= sec
	t.layerSec[to] += sec
}

// moveFirst moves sec seconds to a layer, taking from the sources in order.
func (t *traceRun) moveFirst(to layer, sec float64, from ...layer) {
	for _, f := range from {
		take := max(min(sec, t.layerSec[f]), 0)
		t.move(f, to, take)
		sec -= take
	}
}

// probeTrials is how many times a probe repeats its measurement; the
// median is kept, so one trial slowed by a neighbour on a shared
// machine does not decide the attribution.
const probeTrials = 5

// medianTrial runs fn probeTrials times and returns the median of the
// values it returns.
func medianTrial(fn func() float64) float64 {
	xs := make([]float64, probeTrials)
	for i := range xs {
		xs[i] = fn()
	}
	return median(xs)
}

// probeNew times calls of cluster.New on one machine shape (median of
// probeTrials batches of reps calls) and folds the per-call cost into
// the running mean over shapes.
func (t *traceRun) probeNew(cfg cluster.Config, ranks int, seed uint64, reps int) error {
	var probeErr error
	var kb float64
	us := medianTrial(func() float64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		tt := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := cluster.New(cfg, ranks, seed+uint64(i)); err != nil {
				probeErr = err
			}
		}
		d := time.Since(tt)
		runtime.ReadMemStats(&m1)
		kb = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e3 / float64(reps)
		return float64(d) / 1e3 / float64(reps)
	})
	if probeErr != nil {
		return probeErr
	}
	n := float64(t.newN)
	t.newUs = (t.newUs*n + us) / (n + 1)
	t.newKB = (t.newKB*n + kb) / (n + 1)
	t.newN++
	return nil
}

// probeMessages times fn and divides by the messages it sent (median of
// probeTrials runs).
func (t *traceRun) probeMessages(fn func()) {
	c := telemetry.Default().Counter("cluster.messages")
	t.nsPerMessage = medianTrial(func() float64 {
		m0 := c.Value()
		tt := time.Now()
		fn()
		d := time.Since(tt)
		if n := c.Value() - m0; n > 0 {
			return float64(d) / float64(n)
		}
		return 0
	})
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	n        int
	dur, own float64 // seconds: total duration, total self time
}

// runTraced runs the traced window, the probes and the attribution.
func runTraced(ctx context.Context, w workload, opt options, untraced *window) (*traceRun, error) {
	entry := map[string]layer{
		"paper-figures":  layerOther,
		"mpibench-sweep": layerSuite,
		"serve-sweep":    layerSuite,
		"campaign-sweep": layerShard,
	}[opt.workload]

	sink := &memSink{}
	telemetry.EnableSink(sink)
	win, err := timedWindow(ctx, w, opt.seconds/2)
	telemetry.Disable()
	if err != nil {
		return nil, err
	}
	t := &traceRun{win: win, steps: win.steps, spans: sink.spans, metrics: map[string]metric{}}
	for _, d := range perLayer {
		t.set(d.name, 0, d.unit)
	}

	reparentOrphans(t.spans)
	// Self time: a span's duration minus its children's.
	children := map[telemetry.SpanID]float64{}
	for _, sp := range t.spans {
		if sp.Parent != 0 {
			children[sp.Parent] += float64(sp.DurUs) / 1e6
		}
	}
	byName := map[string]*spanStats{}
	for _, sp := range t.spans {
		dur := float64(sp.DurUs) / 1e6
		own := max(dur-children[sp.ID], 0)
		key := sp.Name
		if sp.Name == "campaign" && strings.HasPrefix(sp.Detail, "resume ") {
			key = "campaign.resume"
		}
		st := byName[key]
		if st == nil {
			st = &spanStats{}
			byName[key] = st
		}
		st.n++
		st.dur += dur
		st.own += own
		t.layerSec[spanLayer(sp.Name, entry)] += own
		if sp.Parent == 0 {
			t.total += dur
		}
	}
	mean := func(name string, own bool) float64 {
		st := byName[name]
		if st == nil || st.n == 0 {
			return 0
		}
		if own {
			return st.own / float64(st.n)
		}
		return st.dur / float64(st.n)
	}

	if err := w.probe(ctx, t); err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}

	ops := float64(len(win.ops))
	samples := win.counter("bench.samples")
	observed := samples + win.counter("bench.warmups") + win.counter("bench.retries") + win.counter("bench.losses")
	t.set("cluster.new_calls", win.counter("cluster.machines")/ops, "count")
	t.set("cluster.new_us", t.newUs, "us")
	t.set("cluster.new_kb", t.newKB, "kB")
	t.set("cluster.messages", win.counter("cluster.messages")/ops, "count")
	t.set("cluster.ns_per_message", t.nsPerMessage, "ns")
	t.set("bench.samples", samples/ops, "count")
	if samples > 0 {
		t.set("bench.loop_ns_per_sample", t.layerSec[layerBench]*1e9/samples, "ns")
	}
	t.set("bench.analysis_us", mean("analysis", false)*1e6, "us")
	if t.metrics["bench.useful_frac"].Value == 0 && observed > 0 { // campaign-sweep sets its own
		t.set("bench.useful_frac", samples/observed, "fraction")
	}
	t.set("serve.requests", win.counter("serve.requests")/ops, "count")
	t.set("serve.batches", win.counter("serve.batches")/ops, "count")
	t.set("analysis.ms_per_op", t.layerSec[layerAnalysis]*1e3/ops, "ms")
	if opt.workload != "paper-figures" {
		t.set("report.render_ms", mean("report", false)*1e3, "ms")
	}
	records := win.counter("campaign.records")
	t.set("campaign.records", records/ops, "count")
	if records > 0 {
		fsyncs, fsyncUs := win.histSum("campaign.fsync_us")
		t.set("campaign.fsyncs_per_record", fsyncs/records, "count")
		t.set("campaign.fsync_wait_frac", fsyncUs/1e6/win.wall.Seconds(), "fraction")
	}
	t.set("campaign.resume_ms", mean("campaign.resume", true)*1e3, "ms")
	t.set("shard.exec_overhead_ms", mean("shard", true)*1e3, "ms")
	t.set("shard.merge_ms", mean("shard.merge", false)*1e3, "ms")
	t.set("suite.config_us", mean("config", false)*1e6, "us")
	t.set("suite.self_ms_per_op", t.layerSec[layerSuite]*1e3/ops, "ms")
	t.set("gc.cycles_per_op", float64(win.mem1.NumGC-win.mem0.NumGC)/ops, "count")
	t.set("gc.pause_ms_per_op", float64(win.mem1.PauseTotalNs-win.mem0.PauseTotalNs)/1e6/ops, "ms")
	t.set("trace.overhead_frac", 1-win.opsPerSec()/untraced.opsPerSec(), "fraction")
	for l := layer(0); l < numLayers; l++ {
		if t.total > 0 {
			t.set("share."+layerNames[l], t.layerSec[l]/t.total, "fraction")
		}
	}

	// Bypass assertions: a workload that drifts into another layer
	// fails instead of skewing the attribution.
	var drift []string
	if opt.workload == "serve-sweep" && win.counter("cluster.machines") != 0 {
		drift = append(drift, fmt.Sprintf("cluster.machines=%g on serve-sweep", win.counter("cluster.machines")))
	}
	if opt.workload != "serve-sweep" && win.counter("serve.requests") != 0 {
		drift = append(drift, fmt.Sprintf("serve.requests=%g outside serve-sweep", win.counter("serve.requests")))
	}
	if opt.workload != "campaign-sweep" && records != 0 {
		drift = append(drift, fmt.Sprintf("campaign.records=%g outside campaign-sweep", records))
	}
	if len(drift) > 0 {
		t.bypassErr = fmt.Errorf("bypass assertion failed: %s", strings.Join(drift, "; "))
	}

	if t.path, err = writeSpans(opt, t.spans); err != nil {
		return nil, err
	}
	return t, nil
}

// benchSpans are the spans the benchmark starts itself; every other span
// comes from the program.
var benchSpans = map[string]bool{"op": true, "report": true, "shard.create": true, "shard.merge": true}

// reparentOrphans gives a parent to program spans started without a
// span in their context (bench.Analyze inside shard.Merge runs on a
// background context): the innermost span enclosing it in time, so its
// time is counted once, under the call that caused it.
func reparentOrphans(spans []telemetry.Span) {
	for i := range spans {
		o := &spans[i]
		if o.Parent != 0 || benchSpans[o.Name] {
			continue
		}
		best := -1
		for j, sp := range spans {
			if j != i && sp.StartUs <= o.StartUs && sp.StartUs+sp.DurUs >= o.StartUs+o.DurUs &&
				(best < 0 || sp.DurUs < spans[best].DurUs) {
				best = j
			}
		}
		if best >= 0 {
			o.Parent = spans[best].ID
		}
	}
}

// writeSpans writes the traced window's spans as JSON lines.
func writeSpans(opt options, spans []telemetry.Span) (string, error) {
	dir := filepath.Join(opt.out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", opt.workload, opt.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartUs < spans[j].StartUs })
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
