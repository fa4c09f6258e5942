package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/serve"
	"repro/internal/suite"
)

// servePresets are the named service-workload shapes. diurnal2 is the
// reference configuration of the determinism contract: a two-period
// diurnal Poisson sweep whose merged.json must be bit-identical for
// every -j value.
var servePresetNames = []string{"poisson", "diurnal2", "burst"}

func servePreset(name string, epoch time.Duration) (suite.ServeConfig, error) {
	switch name {
	case "poisson":
		return suite.ServeConfig{
			Arrival: serve.ArrivalConfig{Kind: serve.Poisson},
			Server: serve.ServerConfig{
				Servers: 1,
				Service: serve.ServiceConfig{Mean: time.Millisecond, Sigma: 0.5},
			},
		}, nil
	case "diurnal2":
		return suite.ServeConfig{
			Arrival: serve.ArrivalConfig{Kind: serve.Diurnal, Periods: []serve.DiurnalPeriod{
				{Period: epoch, Amplitude: 0.6},
				{Period: epoch / 5, Amplitude: 0.25},
			}},
			Server: serve.ServerConfig{
				Servers: 2,
				Service: serve.ServiceConfig{Mean: time.Millisecond, Sigma: 0.5},
			},
		}, nil
	case "burst":
		return suite.ServeConfig{
			Arrival: serve.ArrivalConfig{Kind: serve.OnOff},
			Server: serve.ServerConfig{
				Servers:    1,
				QueueCap:   4096,
				BatchMax:   8,
				BatchDelay: 2 * time.Millisecond,
				Service:    serve.ServiceConfig{Mean: time.Millisecond, Sigma: 0.5, PerItem: 100 * time.Microsecond},
			},
		}, nil
	}
	return suite.ServeConfig{}, fmt.Errorf("unknown preset %q (poisson|diurnal2|burst)", name)
}

// cmdServe runs an open-loop offered-load sweep of a preset service
// workload and, with -dir, records the deterministic merged.json
// artifact.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	preset := fs.String("preset", "diurnal2", "workload preset: poisson|diurnal2|burst")
	dir := fs.String("dir", "", "write merged.json (the sweep artifact) into this directory")
	epoch := fs.Duration("epoch", 5*time.Second, "simulated time per epoch")
	epochs := fs.Int("epochs", 6, "seeded epochs per load point (min 6)")
	loads := fs.String("loads", "", "comma-separated offered-load fractions (default ramp)")
	seed := fs.Uint64("seed", 1, "RNG seed")
	workers := fs.Int("j", 0, "load points measured concurrently (0 = GOMAXPROCS); merged.json is bit-identical for every value")
	stall := fs.Duration("stall", 0, "inject a dispatch stall of this duration mid-epoch; arms the coordinated-omission audit")
	verbose := fs.Bool("v", false, "stream per-point progress")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := servePreset(*preset, *epoch)
	if err != nil {
		return fmt.Errorf("-preset: %w", err)
	}
	cfg.Duration = *epoch
	cfg.Epochs = *epochs
	cfg.Seed = *seed
	cfg.Workers = *workers
	if *loads != "" {
		if cfg.Loads, err = suite.ParseLoads(*loads); err != nil {
			return fmt.Errorf("-loads: %w", err)
		}
	}
	if *stall > 0 {
		cfg.Server.Stalls = []serve.Stall{{At: *epoch / 2, Dur: *stall}}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var progress io.Writer
	if *verbose {
		progress = os.Stderr
	}
	res, err := suite.RunServe(ctx, cfg, progress)
	if err != nil {
		return err
	}
	if err := res.WriteReport(os.Stdout); err != nil {
		return err
	}
	if *dir != "" {
		if err := os.MkdirAll(*dir, 0o777); err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			return err
		}
		path := filepath.Join(*dir, "merged.json")
		if err := campaign.PublishFile(path, buf.Bytes()); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "scibench: sweep recorded in %s\n", path)
	}
	return nil
}
