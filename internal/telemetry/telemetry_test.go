package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Error("second lookup returned a different counter")
	}

	g := r.Gauge("g")
	g.Set(7)
	if now := g.Add(2); now != 9 {
		t.Errorf("Add returned %d, want 9", now)
	}
	g.Add(-3)
	if got := g.Value(); got != 6 {
		t.Errorf("gauge = %d, want 6", got)
	}
}

func TestHistogramSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count=%d, want 100", s.Count)
	}
	if s.Mean != 50.5 || s.Min != 1 || s.Max != 100 {
		t.Errorf("mean=%g min=%g max=%g", s.Mean, s.Min, s.Max)
	}
	if s.P50 < 45 || s.P50 > 56 || s.P99 < 95 {
		t.Errorf("p50=%g p99=%g implausible", s.P50, s.P99)
	}
}

// TestHistogramWholeStreamQuantiles pins snapshot quantiles to the whole
// stream: 10,000 observations from 10 s down to 1 µs (in microseconds,
// the unit the harness records), the large ones first, so a recent-value
// window would see only the smallest. Each quantile must be within 1/64
// relative of the exact nearest-rank value.
func TestHistogramWholeStreamQuantiles(t *testing.T) {
	const n = 10000
	h := &Histogram{}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 1e7 * math.Pow(10, -7*float64(i)/(n-1)) // 10 s … 1 µs
		h.Observe(xs[i])
	}
	s := h.Snapshot()
	if s.Count != n || s.Min != xs[n-1] || s.Max != xs[0] {
		t.Fatalf("count=%d min=%g max=%g, want %d/%g/%g", s.Count, s.Min, s.Max, n, xs[n-1], xs[0])
	}
	sort.Float64s(xs)
	for _, c := range []struct {
		p   float64
		got float64
	}{{0.5, s.P50}, {0.9, s.P90}, {0.99, s.P99}} {
		want := xs[int(math.Ceil(c.p*n))-1] // nearest rank
		if rel := math.Abs(c.got-want) / want; rel > 1.0/64 {
			t.Errorf("p%g = %g, exact %g (relative error %.3g > 1/64)", 100*c.p, c.got, want, rel)
		}
	}
}

func TestEmptyHistogramSerializes(t *testing.T) {
	r := NewRegistry()
	r.Histogram("empty")
	r.Histogram("one").Observe(3)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON with NaN-prone histograms: %v", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Histograms["empty"].Count != 0 || snap.Histograms["empty"].Mean != 0 {
		t.Errorf("empty histogram snapshot = %+v", snap.Histograms["empty"])
	}
	if snap.Histograms["one"].StdDev != 0 {
		t.Errorf("single-observation stddev = %g, want 0 (NaN sanitized)", snap.Histograms["one"].StdDev)
	}
}

func TestTracerDisabledIsFree(t *testing.T) {
	tr := NewTracer()
	if sp := tr.Start(0, "x", ""); sp != nil {
		t.Fatal("disabled tracer returned a live span")
	}
	var nilSpan *ActiveSpan
	nilSpan.End() // must not panic
	if nilSpan.ID() != 0 {
		t.Error("nil span ID != 0")
	}
	if len(tr.Recent()) != 0 {
		t.Error("disabled tracer recorded spans")
	}
}

func TestTracerRecordsHierarchy(t *testing.T) {
	tr := NewTracer()
	var sink bytes.Buffer
	tr.Enable(&sink)
	defer tr.Disable()

	parent := tr.Start(0, "sweep", "2 configurations")
	child := tr.Start(parent.ID(), "config", "reduce p=2")
	child.End()
	child.End() // idempotent
	parent.End()

	spans := tr.Recent()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	// Children end first, so the ring holds child then parent.
	if spans[0].Name != "config" || spans[0].Parent != parent.ID() {
		t.Errorf("child span = %+v", spans[0])
	}
	if spans[1].Name != "sweep" || spans[1].Parent != 0 {
		t.Errorf("root span = %+v", spans[1])
	}
	if spans[0].DurUs < 0 || spans[1].DurUs < spans[0].DurUs {
		t.Errorf("durations: child %d, parent %d", spans[0].DurUs, spans[1].DurUs)
	}

	// The sink got one JSON object per line.
	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("sink holds %d lines, want 2", len(lines))
	}
	for _, line := range lines {
		var sp Span
		if err := json.Unmarshal([]byte(line), &sp); err != nil {
			t.Errorf("sink line %q: %v", line, err)
		}
	}
}

// spanList is an in-memory SpanSink.
type spanList []Span

func (l *spanList) WriteSpan(sp Span) { *l = append(*l, sp) }

// TestTracerSink wires an arbitrary SpanSink through the tracer end to
// end: every completed span reaches it, children first, parent links
// intact, and Disable detaches it.
func TestTracerSink(t *testing.T) {
	tr := NewTracer()
	var got spanList
	tr.EnableSink(&got)
	root := tr.Start(0, "campaign", "e2e")
	child := tr.Start(root.ID(), "collection", "cfg-1")
	child.End()
	root.End()
	tr.Disable()
	tr.Start(0, "after", "").End()
	if len(got) != 2 {
		t.Fatalf("sink got %d spans, want 2", len(got))
	}
	if got[0].Name != "collection" || got[1].Name != "campaign" {
		t.Fatalf("span order/names: %+v", got)
	}
	if got[0].Parent != got[1].ID {
		t.Fatal("child span lost its parent link")
	}
}

func TestTracerRingWraps(t *testing.T) {
	tr := NewTracer()
	tr.Enable(nil)
	defer tr.Disable()
	for i := 0; i < traceRing+10; i++ {
		tr.Start(0, "s", "").End()
	}
	spans := tr.Recent()
	if len(spans) != traceRing {
		t.Fatalf("ring holds %d, want %d", len(spans), traceRing)
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].ID <= spans[i-1].ID {
			t.Fatalf("ring not oldest-first at %d: %d then %d", i, spans[i-1].ID, spans[i].ID)
		}
	}
}

func TestStartSpanContextPropagation(t *testing.T) {
	tr := DefaultTracer()
	tr.Enable(nil)
	defer tr.Disable()

	ctx := context.Background()
	ctx1, root := StartSpan(ctx, "campaign", "dir")
	if root == nil {
		t.Fatal("enabled StartSpan returned nil")
	}
	if SpanFromContext(ctx1) != root.ID() {
		t.Error("context does not carry the root span")
	}
	ctx2, child := StartSpan(ctx1, "collection", "")
	child.End()
	root.End()
	if SpanFromContext(ctx2) != child.ID() {
		t.Error("context does not carry the child span")
	}
	spans := tr.Recent()
	last := spans[len(spans)-1]
	prev := spans[len(spans)-2]
	if prev.Parent != last.ID {
		t.Errorf("collection span parent = %d, want %d", prev.Parent, last.ID)
	}

	// Disabled: same context back, nil span, no state.
	tr.Disable()
	ctx3, sp := StartSpan(ctx, "x", "")
	if ctx3 != ctx || sp != nil {
		t.Error("disabled StartSpan allocated")
	}
}

// TestRegistryConcurrent hammers every metric type, the snapshot path,
// and the tracer from many goroutines at once; it exists to run under
// the race detector (make race).
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer()
	tr.Enable(nil)
	defer tr.Disable()

	const goroutines = 8
	const iters = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("c").Inc()
				occ := r.Gauge("g").Add(1)
				r.Histogram("h").Observe(float64(occ))
				sp := tr.Start(0, "work", "")
				if i%50 == 0 {
					_ = r.Snapshot()
					_ = tr.Recent()
					var buf bytes.Buffer
					if err := r.WriteJSON(&buf); err != nil {
						t.Error(err)
					}
				}
				sp.End()
				r.Gauge("g").Add(-1)
			}
		}(g)
	}
	wg.Wait()

	if got := r.Counter("c").Value(); got != goroutines*iters {
		t.Errorf("counter = %d, want %d", got, goroutines*iters)
	}
	if got := r.Gauge("g").Value(); got != 0 {
		t.Errorf("gauge = %d, want 0 after balanced adds", got)
	}
	if got := r.Histogram("h").Snapshot().Count; got != goroutines*iters {
		t.Errorf("histogram count = %d, want %d", got, goroutines*iters)
	}
}
