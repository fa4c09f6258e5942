package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/serve"
	"repro/internal/suite"
)

// serveFlags holds the -workload serve parameters.
type serveFlags struct {
	arrival    string
	loads      string
	epoch      time.Duration
	epochs     int
	servers    int
	queue      int
	batch      int
	batchDelay time.Duration
	service    time.Duration
	sigma      float64
	perItem    time.Duration
	stallAt    time.Duration
	stallDur   time.Duration
}

func (sv *serveFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&sv.arrival, "arrival", "poisson", "serve: arrival process: poisson|diurnal|onoff")
	fs.StringVar(&sv.loads, "loads", "", "serve: comma-separated offered-load fractions of capacity (default 0.1…0.95 ramp)")
	fs.DurationVar(&sv.epoch, "epoch", 10*time.Second, "serve: simulated time per epoch")
	fs.IntVar(&sv.epochs, "epochs", 6, "serve: seeded epochs per load point (min 6)")
	fs.IntVar(&sv.servers, "servers", 1, "serve: parallel service units")
	fs.IntVar(&sv.queue, "queue", 0, "serve: pending-queue bound (0 = unbounded)")
	fs.IntVar(&sv.batch, "batch", 1, "serve: max requests per batch")
	fs.DurationVar(&sv.batchDelay, "batch-delay", 0, "serve: max wait for an unfilled batch")
	fs.DurationVar(&sv.service, "service", time.Millisecond, "serve: median service time")
	fs.Float64Var(&sv.sigma, "sigma", 0.5, "serve: lognormal service-time shape (0 = deterministic)")
	fs.DurationVar(&sv.perItem, "per-item", 0, "serve: extra service time per batched request")
	fs.DurationVar(&sv.stallAt, "stall-at", 0, "serve: inject a dispatch stall at this epoch time (with -stall)")
	fs.DurationVar(&sv.stallDur, "stall", 0, "serve: injected stall duration (0 = none); arms the coordinated-omission audit")
}

// config translates the flags into the sweep configuration.
func (sv serveFlags) config(seed uint64, workers int) (suite.ServeConfig, error) {
	cfg := suite.ServeConfig{
		Server: serve.ServerConfig{
			Servers:    sv.servers,
			QueueCap:   sv.queue,
			BatchMax:   sv.batch,
			BatchDelay: sv.batchDelay,
			Service:    serve.ServiceConfig{Mean: sv.service, Sigma: sv.sigma, PerItem: sv.perItem},
		},
		Duration: sv.epoch,
		Epochs:   sv.epochs,
		Seed:     seed,
		Workers:  workers,
	}
	switch sv.arrival {
	case "poisson":
		cfg.Arrival = serve.ArrivalConfig{Kind: serve.Poisson}
	case "diurnal":
		cfg.Arrival = serve.ArrivalConfig{Kind: serve.Diurnal, Periods: []serve.DiurnalPeriod{
			{Period: sv.epoch, Amplitude: 0.6},
			{Period: sv.epoch / 4, Amplitude: 0.3},
		}}
	case "onoff":
		cfg.Arrival = serve.ArrivalConfig{Kind: serve.OnOff}
	default:
		return cfg, fmt.Errorf("-arrival: unknown process %q (poisson|diurnal|onoff)", sv.arrival)
	}
	if sv.stallDur > 0 {
		cfg.Server.Stalls = []serve.Stall{{At: sv.stallAt, Dur: sv.stallDur}}
	}
	if sv.loads != "" {
		loads, err := suite.ParseLoads(sv.loads)
		if err != nil {
			return cfg, fmt.Errorf("-loads: %w", err)
		}
		cfg.Loads = loads
	}
	return cfg, nil
}

// runServe executes the open-loop load sweep and prints the tail-latency
// report.
func runServe(ctx context.Context, sv serveFlags, seed uint64, workers int, progress io.Writer) error {
	cfg, err := sv.config(seed, workers)
	if err != nil {
		return err
	}
	res, err := suite.RunServe(ctx, cfg, progress)
	if err != nil {
		return err
	}
	return res.WriteReport(os.Stdout)
}
