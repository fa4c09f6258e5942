package suite

import (
	"bytes"
	"context"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

func quickServeConfig() ServeConfig {
	return ServeConfig{
		Arrival: serve.ArrivalConfig{Kind: serve.Poisson},
		Server: serve.ServerConfig{
			Servers: 2,
			Service: serve.ServiceConfig{Mean: 2 * time.Millisecond, Sigma: 0.5},
		},
		Loads:    []float64{0.2, 0.5, 0.9},
		Duration: time.Second,
		Seed:     77,
	}
}

func TestRunServeWorkerInvariance(t *testing.T) {
	// The acceptance bar of the sweep: the JSON artifact must be
	// byte-identical whether one worker or GOMAXPROCS workers measured
	// the load points (Rule 9 — parallelism is an execution detail).
	cfg := quickServeConfig()
	encode := func(workers int) string {
		c := cfg
		c.Workers = workers
		res, err := RunServe(context.Background(), c, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatalf("workers=%d: encode: %v", workers, err)
		}
		return buf.String()
	}
	serial := encode(1)
	parallel := encode(runtime.GOMAXPROCS(0))
	if serial != parallel {
		t.Fatalf("sweep JSON differs between worker counts:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

func TestRunServeKneeDetection(t *testing.T) {
	// Ramping into saturation must knee: p99 at ρ≈1 explodes relative to
	// ρ=0.1 (open-loop queueing), and the detector reports the load.
	cfg := quickServeConfig()
	cfg.Loads = []float64{0.1, 0.5, 0.98}
	cfg.Duration = 2 * time.Second
	res, err := RunServe(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	if res.Rows[2].P99Ms <= res.Rows[0].P99Ms {
		t.Fatalf("p99 did not grow with load: %.3f ms at ρ=0.1 vs %.3f ms at ρ=0.98",
			res.Rows[0].P99Ms, res.Rows[2].P99Ms)
	}
	if res.KneeLoad != 0.98 {
		t.Fatalf("knee at ρ=%.2f, want 0.98 (p99 ramp: %.3f / %.3f / %.3f ms)",
			res.KneeLoad, res.Rows[0].P99Ms, res.Rows[1].P99Ms, res.Rows[2].P99Ms)
	}
	for _, row := range res.Rows {
		if row.P99LoMs > row.P99Ms || row.P99HiMs < row.P99Ms {
			t.Errorf("ρ=%.2f: p99 %.3f outside its own CI [%.3f, %.3f]",
				row.Load, row.P99Ms, row.P99LoMs, row.P99HiMs)
		}
		if row.Offered != row.Completed+row.Dropped {
			t.Errorf("ρ=%.2f: conservation violated: %+v", row.Load, row)
		}
	}
}

func TestRunServeOmissionAudit(t *testing.T) {
	// A stall-carrying config triggers the coordinated-omission audit at
	// the top load and the ratio lands in the result and the report.
	cfg := quickServeConfig()
	cfg.Loads = []float64{0.3}
	cfg.Server.Service.Sigma = 0
	cfg.Server.Stalls = []serve.Stall{{At: 200 * time.Millisecond, Dur: 300 * time.Millisecond}}
	res, err := RunServe(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.OmissionRatio <= 1 {
		t.Fatalf("omission ratio %.2f, want > 1 under an injected stall", res.OmissionRatio)
	}
	var buf bytes.Buffer
	if err := res.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "coordinated-omission audit") {
		t.Fatalf("report omits the omission audit:\n%s", buf.String())
	}
}

func TestRunServeReport(t *testing.T) {
	res, err := RunServe(context.Background(), quickServeConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"load sweep", "p99 (ms)", "p99 CI"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestServeCapacity(t *testing.T) {
	c := ServeConfig{Server: serve.ServerConfig{
		Servers:  4,
		BatchMax: 8,
		Service:  serve.ServiceConfig{Mean: 7 * time.Millisecond, PerItem: time.Millisecond},
	}}
	// 4 servers × 8 per batch / (7 ms + 7×1 ms) = 32 / 14 ms ≈ 2285.7/s.
	got := c.Capacity()
	want := 32.0 / 0.014
	if diff := got - want; diff > 1 || diff < -1 {
		t.Fatalf("capacity %.1f, want %.1f", got, want)
	}
}

func TestParseLoads(t *testing.T) {
	for _, c := range []struct {
		in      string
		want    []float64
		wantErr string
	}{
		{in: "0.5", want: []float64{0.5}},
		{in: "0.2,0.6,0.9", want: []float64{0.2, 0.6, 0.9}},
		{in: " 0.1 , 1.5,2 ", want: []float64{0.1, 1.5, 2}},
		{in: "0.2,x", wantErr: `bad load "x"`},
		{in: "", wantErr: `bad load ""`},
		{in: "0.2,,0.4", wantErr: `bad load ""`},
		{in: "0", wantErr: "outside (0, 2]"},
		{in: "-0.3", wantErr: "outside (0, 2]"},
		{in: "2.01", wantErr: "outside (0, 2]"},
		{in: "50", wantErr: "outside (0, 2]"},
	} {
		got, err := ParseLoads(c.in)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("ParseLoads(%q) = %v, %v; want error containing %q", c.in, got, err, c.wantErr)
			}
			continue
		}
		if err != nil || !slices.Equal(got, c.want) {
			t.Errorf("ParseLoads(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
}
