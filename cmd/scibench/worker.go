// Cross-machine campaigns: the `scibench worker` subcommand and the
// `-remote` mode of `scibench campaign -shards N`. A worker agent
// registers with a coordinator, executes assigned shards locally with
// the same journaled executor `scibench exec` uses, and ships journal
// chunks back over HTTP with CRC framing and resumable offsets. The
// coordinator mirrors each shard into the sweep directory, so the
// supervisor, the merge, and byte-identity work exactly as in the
// local-process mode — with workers that crash, stall, or partition
// detected and their shards reassigned.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	scibench "repro"
)

func cmdWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	coord := fs.String("coordinator", "", "coordinator base URL, e.g. http://10.0.0.1:7700 (required)")
	listen := fs.String("listen", "127.0.0.1:0", "address this worker serves assignments on")
	advertise := fs.String("advertise", "", "host the coordinator should call back on (default: the listen host)")
	work := fs.String("work", "", "local working directory for shard journals (default: a temp dir)")
	heartbeat := fs.Duration("heartbeat", 0, "executor heartbeat interval (0 = default)")
	ship := fs.Duration("ship", 0, "journal shipping interval (0 = default)")
	seed := fs.Uint64("worker-seed", 1, "seed for this worker's retry jitter")
	// Chaos flags: a seeded fault injector on this worker's link, for
	// rehearsing partition tolerance without real packet loss.
	fDrop := fs.Float64("fault-drop", 0, "inject: probability a request is dropped")
	fDelay := fs.Float64("fault-delay", 0, "inject: probability a request is delayed")
	fDelayBy := fs.Duration("fault-delay-by", 5*time.Millisecond, "inject: delay duration")
	fDup := fs.Float64("fault-dup", 0, "inject: probability a request is duplicated")
	fSeed := fs.Uint64("fault-seed", 1, "inject: fault stream seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coord == "" {
		return fmt.Errorf("-coordinator is required")
	}
	var rt http.RoundTripper
	if *fDrop > 0 || *fDelay > 0 || *fDup > 0 {
		ft := scibench.NewRemoteFaultTransport(*fSeed, nil)
		ft.DropProb = *fDrop
		ft.DelayProb = *fDelay
		ft.Delay = *fDelayBy
		ft.DupProb = *fDup
		rt = ft
		fmt.Fprintf(os.Stderr, "worker: injecting faults (drop %.2f, delay %.2f × %s, dup %.2f, seed %d)\n",
			*fDrop, *fDelay, *fDelayBy, *fDup, *fSeed)
	}
	w, err := scibench.StartRemoteWorker(scibench.RemoteWorkerOptions{
		Coordinator:   *coord,
		Listen:        *listen,
		AdvertiseHost: *advertise,
		WorkDir:       *work,
		Runner:        cliRunner{},
		Heartbeat:     *heartbeat,
		ShipInterval:  *ship,
		Seed:          *seed,
		Transport:     rt,
		Log:           os.Stderr,
	})
	if err != nil {
		return err
	}
	defer w.Close()
	fmt.Fprintf(os.Stderr, "worker %s serving on %s (coordinator %s)\n", w.ID(), w.URL(), *coord)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	fmt.Fprintln(os.Stderr, "worker: shutting down")
	return nil
}

// runRemoteCampaign is `scibench campaign -shards N -remote ADDR`: serve
// the sweep's coordinator on ADDR, wait for -min-workers agents to
// register, then supervise the shards across them. Workers that crash,
// stall, or partition mid-shard are fenced and their shards reassigned
// to other registered workers, resuming from the shipped journals;
// per-worker Rule 9 host fingerprints land in the merge.
func runRemoteCampaign(dir string, cc campaignConfig, units, shards int,
	timeout time.Duration, listen string, minWorkers int) error {
	if _, err := scibench.LoadShardSweep(dir); err != nil {
		sw, err := buildShardSweep(filepath.Base(dir), cc, units, shards)
		if err != nil {
			return err
		}
		if err := scibench.CreateShardSweep(dir, sw); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(os.Stderr, "resuming existing sweep in %s\n", dir)
	}
	c, err := scibench.NewRemoteCoordinator(dir, scibench.RemoteCoordinatorOptions{
		Listen: listen,
		Seed:   cc.Seed,
		Log:    os.Stderr,
	})
	if err != nil {
		return err
	}
	defer c.Close()
	fmt.Fprintf(os.Stderr, "coordinator on %s — start agents with: scibench worker -coordinator %s\n",
		c.URL(), c.URL())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "waiting for %d worker(s) to register...\n", minWorkers)
	if err := c.WaitForWorkers(ctx, minWorkers); err != nil {
		return fmt.Errorf("waiting for workers: %w", err)
	}
	for _, w := range c.Workers() {
		fmt.Fprintf(os.Stderr, "  worker %s at %s (%s, env %.12s)\n", w.ID, w.Addr, w.Hostname, w.EnvFP)
	}

	statuses, err := scibench.SuperviseShards(ctx, dir, c.StartFunc(),
		scibench.ShardSuperviseOptions{HeartbeatTimeout: timeout, Seed: cc.Seed, Log: os.Stderr})
	if err != nil {
		return err
	}
	lost := 0
	for _, st := range statuses {
		if st.Lost {
			lost++
			fmt.Fprintf(os.Stderr, "shard %d LOST after %d attempt(s): %v\n", st.Shard, st.Attempts, st.Err)
		}
	}
	rep, err := scibench.MergeShards(dir)
	if err != nil {
		return err
	}
	if err := scibench.WriteMergedShardManifest(dir, rep); err != nil {
		return err
	}
	if err := rep.WriteReport(os.Stdout); err != nil {
		return err
	}
	if lost > 0 {
		os.Exit(4)
	}
	return nil
}
