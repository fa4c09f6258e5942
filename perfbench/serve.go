package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"time"

	"repro/internal/ci"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/suite"
	"repro/internal/telemetry"
)

// servePresets is the fixed rotation; burst carries a 50 ms stall so
// RunServe runs the coordinated-omission audit.
var servePresets = []string{"poisson", "diurnal2", "burst"}

// serveEpoch is `scibench serve`'s default -epoch.
const serveEpoch = 5 * time.Second

// servePreset builds the ServeConfig `scibench serve -preset name -j 1`
// builds at its defaults (7 load points × 6 epochs × 5 s).
func servePreset(name string, epoch time.Duration, seed uint64) suite.ServeConfig {
	svc := serve.ServiceConfig{Mean: time.Millisecond, Sigma: 0.5}
	var cfg suite.ServeConfig
	switch name {
	case "poisson":
		cfg = suite.ServeConfig{
			Arrival: serve.ArrivalConfig{Kind: serve.Poisson},
			Server:  serve.ServerConfig{Servers: 1, Service: svc},
		}
	case "diurnal2":
		cfg = suite.ServeConfig{
			Arrival: serve.ArrivalConfig{Kind: serve.Diurnal, Periods: []serve.DiurnalPeriod{
				{Period: epoch, Amplitude: 0.6},
				{Period: epoch / 5, Amplitude: 0.25},
			}},
			Server: serve.ServerConfig{Servers: 2, Service: svc},
		}
	case "burst":
		svc.PerItem = 100 * time.Microsecond
		cfg = suite.ServeConfig{
			Arrival: serve.ArrivalConfig{Kind: serve.OnOff},
			Server: serve.ServerConfig{
				Servers: 1, QueueCap: 4096, BatchMax: 8, BatchDelay: 2 * time.Millisecond,
				Service: svc,
				Stalls:  []serve.Stall{{At: epoch / 2, Dur: 50 * time.Millisecond}},
			},
		}
	}
	cfg.Duration = epoch
	cfg.Epochs = 6
	cfg.Seed = seed
	cfg.Workers = 1
	return cfg
}

// serveWorkload: one op is one suite.RunServe sweep of a preset, rotating
// poisson → diurnal2 → burst; op i uses seed+i. A step is one rotation.
type serveWorkload struct {
	seed     uint64
	epoch    time.Duration
	ops      int
	outcomes []serveOutcome
}

type serveOutcome struct {
	preset    string
	seed      uint64
	knee      float64
	omission  float64
	offered   int
	completed int
	json      []byte // hash of WriteJSON
}

func newServeWorkload(seed uint64, s size) *serveWorkload {
	w := &serveWorkload{seed: seed, epoch: serveEpoch}
	if s == smallSize {
		w.epoch = serveEpoch / 10
	}
	return w
}

func (s *serveWorkload) settings() string {
	return "workers: RunServe Workers=1 (load points serial), verification re-run Workers=2; journal: none"
}

func (s *serveWorkload) runOnce(ctx context.Context, preset string, seed uint64, workers int) (serveOutcome, error) {
	cfg := servePreset(preset, s.epoch, seed)
	cfg.Workers = workers
	res, err := suite.RunServe(ctx, cfg, nil)
	if err != nil {
		return serveOutcome{}, fmt.Errorf("%s seed %d: %w", preset, seed, err)
	}
	_, span := telemetry.StartSpan(ctx, "report", "WriteJSON")
	var buf bytes.Buffer
	err = res.WriteJSON(&buf)
	span.End()
	sum := sha256.Sum256(buf.Bytes())
	out := serveOutcome{preset: preset, seed: seed, knee: res.KneeLoad, omission: res.OmissionRatio, json: sum[:]}
	for _, row := range res.Rows {
		out.offered += row.Offered
		out.completed += row.Completed
	}
	return out, err
}

// setup runs one untimed poisson sweep.
func (s *serveWorkload) setup(ctx context.Context) error {
	_, err := s.runOnce(ctx, servePresets[0], s.seed, 1)
	return err
}

func (s *serveWorkload) step(ctx context.Context) []opTime {
	ops := make([]opTime, 0, len(servePresets))
	for range servePresets {
		preset := servePresets[s.ops%len(servePresets)]
		seed := s.seed + uint64(s.ops)
		s.ops++
		octx, span := telemetry.StartSpan(ctx, "op", preset)
		t := time.Now()
		out, err := s.runOnce(octx, preset, seed, 1)
		d := time.Since(t)
		span.End()
		if err == nil {
			s.outcomes = append(s.outcomes, out)
		}
		ops = append(ops, opTime{d, err})
	}
	return ops
}

func (s *serveWorkload) verify(ctx context.Context) (int, error) {
	failed := 0
	var first error
	fail := func(err error) {
		failed++
		if first == nil {
			first = err
		}
	}
	for _, o := range s.outcomes {
		switch {
		case o.preset == "diurnal2" && o.knee <= 0:
			fail(fmt.Errorf("diurnal2 seed %d: no latency knee detected", o.seed))
		case o.preset == "burst" && !(o.omission > 1):
			fail(fmt.Errorf("burst seed %d: closed-loop tail not below open-loop tail (ratio %g)", o.seed, o.omission))
		}
	}
	seen := map[string]bool{}
	for _, o := range s.outcomes {
		if seen[o.preset] {
			continue
		}
		seen[o.preset] = true
		again, err := s.runOnce(ctx, o.preset, o.seed, 2)
		if err != nil {
			return failed, fmt.Errorf("re-run with Workers 2: %w", err)
		}
		if !bytes.Equal(again.json, o.json) {
			return failed, fmt.Errorf("%s seed %d: WriteJSON bytes differ between Workers 1 and 2", o.preset, o.seed)
		}
	}
	return failed, first
}

// probe runs serve.Run and ArrivalConfig.Schedule directly on the first
// epoch of every load point of each preset (same seeds RunServe assigns:
// the serial seed++ walk over points × epochs), plus the histogram and
// its rank CI on those latencies.
func (s *serveWorkload) probe(ctx context.Context, t *traceRun) error {
	var runNs, reqs, schedNs, arrivals float64
	var hist *stats.LogHistogram
	for k, preset := range servePresets {
		seed := s.seed + uint64(s.ops-len(servePresets)+k)
		cfg := servePreset(preset, s.epoch, seed)
		capacity := cfg.Capacity()
		loads := []float64{0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95} // RunServe's default ramp
		for i, load := range loads {
			arr := cfg.Arrival
			arr.Rate = load * capacity
			epochSeed := seed + uint64(i*cfg.Epochs) + 1
			tt := time.Now()
			sched, err := arr.Schedule(cfg.Duration, serve.DefaultMaxRequests, epochSeed)
			if err != nil {
				return err
			}
			schedNs += float64(time.Since(tt))
			arrivals += float64(len(sched))
			tt = time.Now()
			r, err := serve.Run(serve.Options{
				Arrival: arr, Server: cfg.Server, Duration: cfg.Duration,
				Seed: epochSeed, Mode: serve.OpenLoop, Hist: &stats.LogHistogram{},
			})
			if err != nil {
				return err
			}
			runNs += float64(time.Since(tt))
			reqs += float64(r.Offered)
			hist = r.Hist
		}
	}
	t.set("serve.run_ns_per_request", runNs/reqs, "ns")
	t.set("serve.schedule_ns_per_arrival", schedNs/arrivals, "ns")

	// Record cost on the last probe's latencies, replayed 10⁶ times.
	vals := make([]float64, 0, 4096)
	for q := 0.0005; q < 1; q += 1.0 / 4096 {
		vals = append(vals, hist.Quantile(q))
	}
	var h stats.LogHistogram
	const records = 1 << 20
	tt := time.Now()
	for i := 0; i < records; i++ {
		h.Record(vals[i%len(vals)])
	}
	t.set("hist.record_ns", float64(time.Since(tt))/records, "ns")
	const cis = 200
	tt = time.Now()
	for i := 0; i < cis; i++ {
		if _, err := ci.QuantileCIHist(hist, 0.99, 0.95); err != nil {
			return err
		}
	}
	t.set("ci.quantile_hist_us", float64(time.Since(tt))/1e3/cis, "us")

	var offered, completed float64
	for _, o := range s.outcomes[max(len(s.outcomes)-t.steps*len(servePresets), 0):] {
		offered += float64(o.offered)
		completed += float64(o.completed)
	}
	if offered > 0 {
		t.set("serve.completed_frac", completed/offered, "fraction")
	}
	// serve.Run runs inside bench's collection loop; the omission audit
	// runs from RunServe itself (suite).
	t.moveFirst(layerServe, t.win.counter("serve.requests")*t.metrics["serve.run_ns_per_request"].Value/1e9, layerBench, layerSuite)
	return nil
}
