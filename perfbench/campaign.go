package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/rules"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// campaignConfig mirrors the recorded configuration of `scibench
// campaign`, so unit config hashes are built the way the CLI builds them.
type campaignConfig struct {
	System   string        `json:"system"`
	Samples  int           `json:"samples"`
	RelErr   float64       `json:"relerr"`
	Seed     uint64        `json:"seed"`
	Faults   string        `json:"faults,omitempty"`
	Throttle time.Duration `json:"throttle_ns,omitempty"`
}

const (
	campaignUnits  = 8 // `scibench campaign -shards 2` default -units
	campaignShards = 2
	campaignWarmup = 3
	// campaignRelErr is a CI target no 2000-sample unit reaches, so every
	// unit runs its whole budget.
	campaignRelErr = 1e-6
)

// campaignEnv is the environment block `scibench campaign` records.
func campaignEnv(cc campaignConfig) rules.Environment {
	return rules.Environment{
		Processor:        "simulated " + cc.System + " (cluster package)",
		Network:          "simulated interconnect, 2 ranks, ping-pong 64 B",
		MeasurementSetup: "1 round per observation, journaled write-ahead",
		InputAndCode:     "scibench campaign (repro module)",
		NotApplicable:    []string{"memory", "compiler", "runtime", "filesystem", "codeurl"},
	}
}

// unitSetup builds a unit's manifest, plan and measure function the way
// the CLI's runner does: a Piz Daint 2-rank ping-pong of 64 B.
func unitSetup(name string, cc campaignConfig) (campaign.Manifest, bench.Plan, func() (float64, error), error) {
	m, err := cluster.New(cluster.PizDaint(), 2, cc.Seed)
	if err != nil {
		return campaign.Manifest{}, bench.Plan{}, nil, err
	}
	measure := func() (float64, error) {
		d := m.PingPong(0, 1, 64, 1)[0]
		return float64(d) / float64(time.Microsecond), nil
	}
	man, err := campaign.NewManifest(name, cc.Seed, cc, nil, campaignEnv(cc))
	if err != nil {
		return campaign.Manifest{}, bench.Plan{}, nil, err
	}
	return man, bench.Plan{Warmup: campaignWarmup, MaxSamples: cc.Samples, RelErr: cc.RelErr}, measure, nil
}

// unitRunner is the executor side: the CLI's runner plus a deterministic
// interruption. The first time a unit reaches half its budget (counted in
// measure calls), the runner cancels the current ExecShard call; the next
// call resumes the unit from its journal.
type unitRunner struct {
	cancel      context.CancelFunc
	interrupted map[string]bool
	fired       bool // the current ExecShard call was cancelled by the runner
	calls       int  // every measure invocation, replays included
	events      []execEvent
}

// execEvent is a point on the executor timeline: a unit (re)started by
// Setup (id set), or an ExecShard call starting or returning (id empty).
type execEvent struct {
	id string
	at time.Time
}

// unitTimes splits the timeline into per-unit op times, in the order the
// units first started. Time between a Setup and the next event belongs to
// that unit; time from an ExecShard call boundary to the next Setup (the
// executor restarting and skipping finished units) belongs to the unit it
// then starts, so a unit's op time covers its interrupted half, the
// restart and the resumed half.
func unitTimes(evs []execEvent) (order []string, dur map[string]time.Duration) {
	dur = map[string]time.Duration{}
	cur := ""
	for i := 0; i+1 < len(evs); i++ {
		a, b := evs[i], evs[i+1]
		if a.id != "" {
			cur = a.id
		}
		owner := cur
		if a.id == "" {
			owner = b.id // empty when a call returned with nothing to start
		}
		if owner == "" {
			continue
		}
		if _, ok := dur[owner]; !ok {
			order = append(order, owner)
		}
		dur[owner] += b.at.Sub(a.at)
	}
	return order, dur
}

func (r *unitRunner) Setup(u shard.Unit) (campaign.Manifest, bench.Plan, func() (float64, error), error) {
	var cc campaignConfig
	if err := json.Unmarshal(u.Config, &cc); err != nil {
		return campaign.Manifest{}, bench.Plan{}, nil, fmt.Errorf("unit %s: corrupt config: %w", u.ID, err)
	}
	man, plan, measure, err := unitSetup(u.ID, cc)
	if err != nil {
		return man, plan, nil, err
	}
	r.events = append(r.events, execEvent{u.ID, time.Now()})
	half := campaignWarmup + cc.Samples/2
	calls := 0
	first := !r.interrupted[u.ID]
	return man, plan, func() (float64, error) {
		calls++
		r.calls++
		if first && calls == half {
			r.interrupted[u.ID] = true
			r.fired = true
			r.cancel()
		}
		return measure()
	}, nil
}

// campaignWorkload: an in-process sweep built the way `scibench campaign
// -shards 2` builds it (8 units, default journal format), shards run one
// after the other through shard.ExecShard, every unit interrupted once at
// half its budget and resumed, the sweep merged. One op is one unit; op i
// uses seed+i. A step is one sweep, merge included.
type campaignWorkload struct {
	seed    uint64
	samples int
	dir     string
	sweeps  int
	runner  *unitRunner
	merged  []*shard.MergeReport
	sweepAt []string // sweep directories, for verification and probes
	calls   []int    // measure invocations per sweep
	setupN  int
}

func newCampaignWorkload(seed uint64, s size, dir string) *campaignWorkload {
	w := &campaignWorkload{seed: seed, samples: 2000, dir: dir}
	if s == smallSize {
		w.samples = 200
	}
	w.runner = &unitRunner{}
	return w
}

func (c *campaignWorkload) settings() string {
	return "workers: shards run serially in-process (2 shards × 4 units), bench analysis default; journal format: default (v1 JSONL, fsync per record)"
}

// buildSweep assembles the sweep manifest the CLI's buildShardSweep does.
func (c *campaignWorkload) buildSweep(name string, seed uint64, units int) (shard.SweepManifest, error) {
	cc := campaignConfig{System: "daint", Samples: c.samples, RelErr: campaignRelErr, Seed: seed}
	faultFP, err := campaign.HashJSON((*faults.Schedule)(nil))
	if err != nil {
		return shard.SweepManifest{}, err
	}
	us := make([]shard.Unit, units)
	for i := range us {
		u := cc
		u.Seed = cc.Seed + uint64(i)
		raw, err := json.Marshal(u)
		if err != nil {
			return shard.SweepManifest{}, err
		}
		ch, err := campaign.HashJSON(u)
		if err != nil {
			return shard.SweepManifest{}, err
		}
		us[i] = shard.Unit{ID: fmt.Sprintf("u%03d-seed-%d", i, u.Seed), Seed: u.Seed, ConfigHash: ch, Config: raw}
	}
	return shard.NewSweep(name, us, faultFP, campaignEnv(cc), min(campaignShards, units))
}

// runSweep creates, executes and merges one sweep, returning per-unit
// op times.
func (c *campaignWorkload) runSweep(ctx context.Context, dir string, seed uint64, units int) ([]opTime, *shard.MergeReport, error) {
	_, span := telemetry.StartSpan(ctx, "shard.create", dir)
	sw, err := c.buildSweep(filepath.Base(dir), seed, units)
	if err == nil {
		err = shard.Create(dir, sw)
	}
	span.End()
	if err != nil {
		return nil, nil, err
	}
	r := c.runner
	r.events = r.events[:0]
	r.interrupted = map[string]bool{}
	for i := 0; i < sw.NumShards; i++ {
		shardDir := filepath.Join(dir, shard.ShardDirName(i))
		for attempt := 0; ; attempt++ {
			sctx, cancel := context.WithCancel(ctx)
			r.cancel, r.fired = cancel, false
			r.events = append(r.events, execEvent{at: time.Now()})
			_, err := shard.ExecShard(sctx, shardDir, r, shard.ExecOptions{})
			cancel()
			r.events = append(r.events, execEvent{at: time.Now()})
			if err == nil {
				break
			}
			if !r.fired || attempt > units {
				return nil, nil, err
			}
		}
	}
	order, dur := unitTimes(r.events)
	if len(order) != units || len(r.interrupted) != units {
		return nil, nil, fmt.Errorf("sweep ran %d of %d units, %d interrupted and resumed",
			len(order), units, len(r.interrupted))
	}
	_, span = telemetry.StartSpan(ctx, "shard.merge", dir)
	rep, err := shard.Merge(dir)
	if err == nil {
		err = shard.WriteMerged(dir, rep)
	}
	span.End()
	if err != nil {
		return nil, nil, err
	}

	ops := make([]opTime, 0, units)
	for _, id := range order {
		ops = append(ops, opTime{dur: dur[id]})
	}
	return ops, rep, nil
}

// setup runs a one-unit sweep (create, interrupted unit, resume, merge)
// in a scratch directory.
func (c *campaignWorkload) setup(ctx context.Context) error {
	c.setupN++
	dir := filepath.Join(c.dir, fmt.Sprintf("setup-%d", c.setupN))
	defer os.RemoveAll(dir)
	_, _, err := c.runSweep(ctx, dir, c.seed, 1)
	return err
}

func (c *campaignWorkload) step(ctx context.Context) []opTime {
	seed := c.seed + uint64(c.sweeps*campaignUnits)
	dir := filepath.Join(c.dir, fmt.Sprintf("sweep-%03d", c.sweeps))
	c.sweeps++
	calls := c.runner.calls
	octx, span := telemetry.StartSpan(ctx, "op", filepath.Base(dir))
	ops, rep, err := c.runSweep(octx, dir, seed, campaignUnits)
	span.End()
	c.calls = append(c.calls, c.runner.calls-calls)
	if err != nil {
		ops = make([]opTime, campaignUnits)
		for i := range ops {
			ops[i].err = err
		}
		return ops
	}
	c.merged = append(c.merged, rep)
	c.sweepAt = append(c.sweepAt, dir)
	return ops
}

func journalBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && info.Name() == campaign.JournalFile {
			n += info.Size()
		}
		return nil
	})
	return n
}

func (c *campaignWorkload) verify(ctx context.Context) (int, error) {
	failed := 0
	var first error
	fail := func(err error) {
		failed++
		if first == nil {
			first = err
		}
	}
	for _, rep := range c.merged {
		if rep.UnitsLost != 0 || rep.UnitsMeasured != len(rep.Units) {
			return failed, fmt.Errorf("sweep %s: merge verdict not COMPLETE (%d lost)", rep.Sweep.Name, rep.UnitsLost)
		}
		for _, u := range rep.Units {
			if err := verifyUnit(ctx, u); err != nil {
				fail(err)
			}
		}
	}
	// ExecShard resumes units internally; check the resume accounting by
	// driving the same campaign calls directly on the first and last unit.
	if len(c.merged) > 0 {
		last := c.merged[len(c.merged)-1].Units
		for _, u := range []shard.Unit{c.merged[0].Units[0].Unit, last[len(last)-1].Unit} {
			if err := c.verifyResume(ctx, u); err != nil {
				return failed, err
			}
		}
	}
	return failed, first
}

// verifyUnit compares a merged unit with a journal-free bench run of the
// same seed.
func verifyUnit(ctx context.Context, u shard.UnitReport) error {
	if !u.Completed || !u.Analyzed {
		return fmt.Errorf("unit %s: not completed", u.Unit.ID)
	}
	var cc campaignConfig
	if err := json.Unmarshal(u.Unit.Config, &cc); err != nil {
		return err
	}
	_, plan, measure, err := unitSetup(u.Unit.ID, cc)
	if err != nil {
		return err
	}
	plan.Workers = 1
	ref, err := bench.RunErrCtx(ctx, plan, measure)
	if err != nil {
		return err
	}
	if !slices.Equal(ref.Raw, u.Analysis.Raw) || ref.Summary.Median != u.Analysis.Summary.Median {
		return fmt.Errorf("unit %s: resumed result differs from a journal-free run of seed %d", u.Unit.ID, cc.Seed)
	}
	return nil
}

// verifyResume interrupts a unit at half its budget with campaign.RunOpts,
// resumes it with campaign.Resume, and checks that every recovered sample
// was re-verified.
func (c *campaignWorkload) verifyResume(ctx context.Context, u shard.Unit) error {
	var cc campaignConfig
	if err := json.Unmarshal(u.Config, &cc); err != nil {
		return err
	}
	dir := filepath.Join(c.dir, "verify-"+u.ID)
	defer os.RemoveAll(dir)
	man, plan, measure, err := unitSetup(u.ID, cc)
	if err != nil {
		return err
	}
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	calls := 0
	res, err := campaign.RunOpts(rctx, dir, man, plan, func() (float64, error) {
		if calls++; calls == campaignWarmup+cc.Samples/2 {
			cancel()
		}
		return measure()
	}, campaign.JournalOptions{})
	if err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	if res.Stop != bench.StopInterrupted {
		return fmt.Errorf("unit %s: not interrupted at half budget (%s)", u.ID, res.Stop)
	}
	man, plan, measure, err = unitSetup(u.ID, cc)
	if err != nil {
		return err
	}
	_, info, err := campaign.Resume(ctx, dir, man, plan, measure, campaign.ResumeOptions{})
	if err != nil {
		return fmt.Errorf("unit %s: resume: %w", u.ID, err)
	}
	if info.ReplayChecked != info.PriorSamples || info.ReplayMismatched != 0 || info.PriorSamples == 0 {
		return fmt.Errorf("unit %s: replay checked %d of %d prior samples (%d mismatched)",
			u.ID, info.ReplayChecked, info.PriorSamples, info.ReplayMismatched)
	}
	return nil
}

// probe re-appends a unit's journaled events to a fresh journal with
// Journal.Record (the call bench's loop makes inside campaign.RunOpts),
// replays the unit journals, and times machine construction and
// ping-pong messages on the unit's machine shape.
func (c *campaignWorkload) probe(ctx context.Context, t *traceRun) error {
	if len(c.sweepAt) == 0 {
		return fmt.Errorf("no sweep to probe")
	}
	sweepDir := c.sweepAt[len(c.sweepAt)-1]
	rep := c.merged[len(c.merged)-1]
	u := rep.Units[0]
	unitDir := shard.UnitDir(filepath.Join(sweepDir, shard.ShardDirName(u.Shard)), u.Unit.ID)

	man, st, err := campaign.Load(unitDir)
	if err != nil {
		return err
	}
	pdir := filepath.Join(c.dir, "probe-journal")
	defer os.RemoveAll(pdir)
	man.Sweep = nil
	j, err := campaign.CreateJournal(pdir, man, campaign.JournalOptions{})
	if err != nil {
		return err
	}
	fsync := telemetry.Default().Histogram("campaign.fsync_us")
	f0 := fsync.Snapshot()
	appendUs := make([]float64, 0, len(st.Records))
	for _, rec := range st.Records {
		tt := time.Now()
		if err := j.Record(rec.Event); err != nil {
			j.Close()
			return err
		}
		appendUs = append(appendUs, float64(time.Since(tt))/1e3)
	}
	if err := j.Close(); err != nil {
		return err
	}
	f1 := fsync.Snapshot()
	probeFsyncUs := (float64(f1.Count)*f1.Mean - float64(f0.Count)*f0.Mean) / float64(max(f1.Count-f0.Count, 1))
	sort.Float64s(appendUs)
	t.set("campaign.append_us", mean(appendUs), "us")
	t.set("campaign.append_us_p99", quantile(appendUs, 0.99), "us")

	// Replay: Load every unit journal of the sweep.
	var recs int
	tt := time.Now()
	for _, ur := range rep.Units {
		_, st, err := campaign.Load(shard.UnitDir(filepath.Join(sweepDir, shard.ShardDirName(ur.Shard)), ur.Unit.ID))
		if err != nil {
			return err
		}
		recs += len(st.Records)
	}
	t.set("campaign.replay_records_per_s", float64(recs)/time.Since(tt).Seconds(), "1/s")

	// Journal bytes over the traced window's sweeps.
	var bytes int64
	for _, d := range c.sweepAt[len(c.sweepAt)-t.steps:] {
		bytes += journalBytes(d)
	}
	if records := t.win.counter("campaign.records"); records > 0 {
		t.set("campaign.bytes_per_record", float64(bytes)/records, "B")
	}
	var kept, calls float64
	for _, r := range c.merged[len(c.merged)-t.steps:] {
		for _, u := range r.Units {
			kept += float64(u.N)
		}
	}
	for _, n := range c.calls[len(c.calls)-t.steps:] {
		calls += float64(n)
	}
	if calls > 0 {
		t.set("bench.useful_frac", kept/calls, "fraction")
	}

	seed := u.Unit.Seed
	if err := t.probeNew(cluster.PizDaint(), 2, seed, 20); err != nil {
		return err
	}
	m, err := cluster.New(cluster.PizDaint(), 2, seed)
	if err != nil {
		return err
	}
	t.probeMessages(func() { m.PingPong(0, 1, 64, c.samples) })

	// Appends happen inside bench's collection loop: their fsync time is
	// measured in the window, the rest of an append by the probe. Machines
	// are built by
	// the runner's Setup inside the shard span; messages are sent in the
	// collection loop and, on resume, in the replay (campaign span).
	_, windowFsyncUs := t.win.histSum("campaign.fsync_us")
	encodeUs := max(mean(appendUs)-probeFsyncUs, 0)
	t.move(layerBench, layerCampaign, (windowFsyncUs+t.win.counter("campaign.records")*encodeUs)/1e6)
	t.move(layerShard, layerCluster, t.win.counter("cluster.machines")*t.newUs/1e6)
	t.moveFirst(layerCluster, t.win.counter("cluster.messages")*t.nsPerMessage/1e9, layerBench, layerCampaign)
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
