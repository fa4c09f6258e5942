package scibench_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/suite"
)

// mpibenchDefaultReportSHA256 is the SHA-256 of the report `mpibench
// -seed 1` prints at its defaults. It is pinned across commits, not
// only across worker counts: a change to how machines are built or how
// the sweep draws its samples that moves a single report byte fails
// here, and must re-pin it deliberately.
const mpibenchDefaultReportSHA256 = "8d1fc45299baecd727770690e4c5127b755e273a3c73fde00d0fd1128ba02371"

func TestMPIBenchDefaultReportGolden(t *testing.T) {
	res, err := suite.Run(context.Background(), suite.Config{
		Cluster: cluster.PizDaint(),
		Ranks:   []int{2, 4, 8, 16, 32},
		Bytes:   []int{8, 1024},
		RelErr:  0.05,
		Seed:    1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != mpibenchDefaultReportSHA256 {
		t.Errorf("mpibench default report SHA-256 = %s, want %s", got, mpibenchDefaultReportSHA256)
	}
}

// serveSweepJSONSHA256 pins the SHA-256 of the merged.json that
// `scibench serve -preset P -seed 1` writes at its defaults (7 load
// points × 6 epochs × 5 s); burst runs with `-stall 50ms`, so the
// closed-loop coordinated-omission audit is part of the pinned bytes.
// Like the mpibench golden it is pinned across commits: a change to
// the event engine or the serve simulation that moves a single byte of
// the sweep fails here.
var serveSweepJSONSHA256 = map[string]string{
	"poisson":  "429753b28ea2cfaadd13e6f5debd83c9fedd7f4b9420e7a2f14e568461717b8c",
	"diurnal2": "3c9755095636eb1a66219ed6df8adfb098c651fb78960be34c5b77f9267a85d0",
	"burst":    "c851e78edd7c4e9732ce295936e0abc9b28dd8a97c6ec43863410ed470d77bfb",
}

func TestServeSweepJSONGolden(t *testing.T) {
	const epoch = 5 * time.Second
	svc := serve.ServiceConfig{Mean: time.Millisecond, Sigma: 0.5}
	presets := map[string]suite.ServeConfig{
		"poisson": {
			Arrival: serve.ArrivalConfig{Kind: serve.Poisson},
			Server:  serve.ServerConfig{Servers: 1, Service: svc},
		},
		"diurnal2": {
			Arrival: serve.ArrivalConfig{Kind: serve.Diurnal, Periods: []serve.DiurnalPeriod{
				{Period: epoch, Amplitude: 0.6},
				{Period: epoch / 5, Amplitude: 0.25},
			}},
			Server: serve.ServerConfig{Servers: 2, Service: svc},
		},
		"burst": {
			Arrival: serve.ArrivalConfig{Kind: serve.OnOff},
			Server: serve.ServerConfig{
				Servers: 1, QueueCap: 4096, BatchMax: 8, BatchDelay: 2 * time.Millisecond,
				Service: serve.ServiceConfig{Mean: time.Millisecond, Sigma: 0.5, PerItem: 100 * time.Microsecond},
				Stalls:  []serve.Stall{{At: epoch / 2, Dur: 50 * time.Millisecond}},
			},
		},
	}
	for name, want := range serveSweepJSONSHA256 {
		cfg := presets[name]
		cfg.Duration = epoch
		cfg.Epochs = 6
		cfg.Seed = 1
		res, err := suite.RunServe(context.Background(), cfg, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s sweep JSON SHA-256 = %s, want %s", name, got, want)
		}
	}
}
