package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/suite"
	"repro/internal/telemetry"
)

// mpiWorkload: one op is one suite.Run at mpibench's defaults (Piz Daint,
// every collective × ranks 2–32 × 8 and 1024 B, relerr 0.05) with
// Workers 1, followed by the report render mpibench prints; op i uses
// seed+i.
type mpiWorkload struct {
	seed   uint64
	ranks  []int
	ops    int
	states []mpiOutcome
}

// mpiOutcome is what verification needs of one op.
type mpiOutcome struct {
	seed        uint64
	interrupted bool
	lost        int
	report      []byte // hash of WriteReport
}

func newMPIWorkload(seed uint64, s size) *mpiWorkload {
	w := &mpiWorkload{seed: seed, ranks: []int{2, 4, 8, 16, 32}}
	if s == smallSize {
		w.ranks = []int{2, 4}
	}
	return w
}

func (m *mpiWorkload) settings() string {
	return "workers: suite Workers=1, collective workers=serial (default below 2048 ranks); journal: none"
}

// config is the suite configuration `mpibench -j 1 -seed <seed>` builds.
func (m *mpiWorkload) config(seed uint64, workers int) suite.Config {
	return suite.Config{
		Cluster: cluster.PizDaint(),
		Ranks:   m.ranks,
		Bytes:   []int{8, 1024},
		RelErr:  0.05,
		Seed:    seed,
		Workers: workers,
	}
}

// runOnce runs one sweep and renders its report into a hash.
func (m *mpiWorkload) runOnce(ctx context.Context, seed uint64, workers int) (mpiOutcome, error) {
	res, err := suite.Run(ctx, m.config(seed, workers), nil)
	if err != nil {
		return mpiOutcome{}, err
	}
	_, span := telemetry.StartSpan(ctx, "report", "WriteReport")
	var buf bytes.Buffer
	err = res.WriteReport(&buf)
	span.End()
	sum := sha256.Sum256(buf.Bytes())
	return mpiOutcome{seed: seed, interrupted: res.Interrupted, lost: res.TotalLost(), report: sum[:]}, err
}

func (m *mpiWorkload) setup(ctx context.Context) error {
	_, err := m.runOnce(ctx, m.seed, 1)
	return err
}

// mpiStepOps is the ops per step: a step of about a third of a second
// gives each per-step rate enough ops to be steady.
const mpiStepOps = 10

func (m *mpiWorkload) step(ctx context.Context) []opTime {
	ops := make([]opTime, 0, mpiStepOps)
	for k := 0; k < mpiStepOps; k++ {
		seed := m.seed + uint64(m.ops)
		m.ops++
		octx, span := telemetry.StartSpan(ctx, "op", fmt.Sprintf("suite.Run seed=%d", seed))
		t := time.Now()
		out, err := m.runOnce(octx, seed, 1)
		d := time.Since(t)
		span.End()
		if err == nil {
			m.states = append(m.states, out)
		}
		ops = append(ops, opTime{d, err})
	}
	return ops
}

func (m *mpiWorkload) verify(ctx context.Context) (int, error) {
	failed := 0
	var first error
	for _, s := range m.states {
		if s.interrupted || s.lost != 0 {
			failed++
			if first == nil {
				first = fmt.Errorf("seed %d: interrupted=%v lost=%d", s.seed, s.interrupted, s.lost)
			}
		}
	}
	if len(m.states) == 0 {
		return failed, first
	}
	for _, s := range []mpiOutcome{m.states[0], m.states[len(m.states)-1]} {
		again, err := m.runOnce(ctx, s.seed, 2)
		if err != nil {
			return failed, fmt.Errorf("re-run seed %d with Workers 2: %w", s.seed, err)
		}
		if !bytes.Equal(again.report, s.report) {
			return failed, fmt.Errorf("seed %d: WriteReport bytes differ between Workers 1 and 2", s.seed)
		}
	}
	return failed, first
}

// probe times cluster.New and the collective messages on every machine
// shape the sweep builds, then moves that time out of the suite and
// bench spans it ran inside.
func (m *mpiWorkload) probe(ctx context.Context, t *traceRun) error {
	seed := m.seed + uint64(m.ops-1)
	cfg := m.config(seed, 1)
	for _, p := range m.ranks {
		if err := t.probeNew(cfg.Cluster, p, seed, 8); err != nil {
			return err
		}
	}
	machines := make([]*cluster.Machine, 0, len(m.ranks))
	for _, p := range m.ranks {
		mc, err := cluster.New(cfg.Cluster, p, seed)
		if err != nil {
			return err
		}
		machines = append(machines, mc)
	}
	t.probeMessages(func() {
		for _, mc := range machines {
			sync := mc.DelayWindowSync(time.Millisecond, 3)
			for i := 0; i < 20; i++ {
				for _, b := range cfg.Bytes {
					for _, cr := range []cluster.CollectiveResult{
						mc.Reduce(b, sync.Skew), mc.Allreduce(b, sync.Skew), mc.Bcast(b, sync.Skew),
						mc.Barrier(sync.Skew), mc.Gather(b, sync.Skew), mc.Scatter(b, sync.Skew),
						mc.Allgather(b, sync.Skew), mc.Alltoall(b, sync.Skew),
					} {
						mc.Advance(cr.Max() + 10*time.Microsecond)
					}
				}
			}
		}
	})
	// Machines are built in the config span (suite); collectives run in
	// the collection loop (bench), the delay-window sync in the config span.
	t.move(layerSuite, layerCluster, t.win.counter("cluster.machines")*t.newUs/1e6)
	t.moveFirst(layerCluster, t.win.counter("cluster.messages")*t.nsPerMessage/1e9, layerBench, layerSuite)
	return nil
}
