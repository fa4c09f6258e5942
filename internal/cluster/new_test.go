package cluster

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"
	"time"

	"repro/internal/noise"
)

// newReference is New as it was when it materialized every node of the
// preset, kept verbatim as the oracle New must match draw for draw.
func newReference(cfg Config, ranks int, seed uint64) (*Machine, error) {
	if cfg.Nodes <= 0 || cfg.CoresPerNode <= 0 {
		return nil, fmt.Errorf("cluster: config needs Nodes and CoresPerNode > 0")
	}
	if ranks <= 0 {
		return nil, fmt.Errorf("cluster: ranks = %d must be positive", ranks)
	}
	if ranks > cfg.Nodes*cfg.CoresPerNode {
		return nil, fmt.Errorf("cluster: %d ranks exceed %d nodes × %d cores",
			ranks, cfg.Nodes, cfg.CoresPerNode)
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, err
	}
	telMachines.Inc()
	m := &Machine{
		cfg:  cfg,
		rng:  rand.New(rand.NewPCG(seed, 0x5c1beccd)),
		seed: seed,
	}

	// Per-node characteristics.
	speeds := make([]float64, cfg.Nodes)
	daemons := make([]noise.Model, cfg.Nodes)
	for n := 0; n < cfg.Nodes; n++ {
		speeds[n] = 1.0
		if cfg.NodeSigma > 0 {
			speeds[n] = math.Exp(cfg.NodeSigma * m.rng.NormFloat64())
		}
		if n < cfg.DaemonNodes && cfg.DaemonPeriod > 0 && cfg.DaemonWindow > 0 {
			daemons[n] = noise.Periodic{
				Period: cfg.DaemonPeriod,
				Window: cfg.DaemonWindow,
				Phase:  time.Duration(m.rng.Int64N(int64(cfg.DaemonPeriod))),
			}
		}
	}

	m.procs = make([]proc, ranks)
	for r := 0; r < ranks; r++ {
		var node int
		if cfg.Placement == Scattered {
			node = r % cfg.Nodes
		} else {
			node = r / cfg.CoresPerNode
		}
		p := &m.procs[r]
		p.rank, p.node, p.speed, p.daemon = r, node, speeds[node], daemons[node]
		if cfg.ClockOffsetMax > 0 {
			p.clockOffset = time.Duration(m.rng.Int64N(2*int64(cfg.ClockOffsetMax))) -
				cfg.ClockOffsetMax
		}
		if cfg.ClockDriftPPM > 0 {
			p.clockDrift = (2*m.rng.Float64() - 1) * cfg.ClockDriftPPM * 1e-6
		}
	}
	return m, nil
}

// TestNewMatchesReference pins New's byte identity: building only the
// rank-hosting nodes must leave every process field and the stream
// position exactly where the full per-node build leaves them.
func TestNewMatchesReference(t *testing.T) {
	presets := []Config{PizDaint(), PizDora(), Pilatus(), Quiet(16, 4)}
	for _, base := range presets {
		for _, pl := range []Placement{Packed, Scattered} {
			cfg := base
			cfg.Placement = pl
			full := cfg.Nodes * cfg.CoresPerNode
			ranks := []int{1, 2, 7, 8, 9, 32, full}
			if pl == Scattered {
				ranks = append(ranks, cfg.Nodes+3) // wraps around the nodes
			}
			for _, r := range ranks {
				if r > full {
					continue
				}
				t.Run(fmt.Sprintf("%s/%s/ranks=%d", cfg.Name, pl, r), func(t *testing.T) {
					for _, seed := range []uint64{1, 7919} {
						want, err := newReference(cfg, r, seed)
						if err != nil {
							t.Fatal(err)
						}
						got := mustNew(t, cfg, r, seed)
						assertSameMachine(t, got, want)
					}
				})
			}
		}
	}
}

func assertSameMachine(t *testing.T, got, want *Machine) {
	t.Helper()
	if len(got.procs) != len(want.procs) {
		t.Fatalf("ranks = %d, want %d", len(got.procs), len(want.procs))
	}
	for r := range want.procs {
		g, w := got.procs[r], want.procs[r]
		if g.rank != w.rank || g.node != w.node || g.clockOffset != w.clockOffset ||
			math.Float64bits(g.clockDrift) != math.Float64bits(w.clockDrift) ||
			math.Float64bits(g.speed) != math.Float64bits(w.speed) {
			t.Fatalf("rank %d: proc %+v, want %+v", r, g, w)
		}
		gd, gok := g.daemon.(noise.Periodic)
		wd, wok := w.daemon.(noise.Periodic)
		if (g.daemon == nil) != (w.daemon == nil) || gok != wok || gd != wd {
			t.Fatalf("rank %d: daemon %#v, want %#v", r, g.daemon, w.daemon)
		}
	}
	for i := 0; i < 64; i++ {
		if g, w := got.rng.Uint64(), want.rng.Uint64(); g != w {
			t.Fatalf("stream draw %d after construction: %#x, want %#x", i, g, w)
		}
	}
}

// TestNewAllocsIndependentOfNodes keeps machine construction O(ranks):
// a 2-rank machine costs the same allocations and bytes on a one-node
// preset as on the full 5,272-node Piz Daint.
func TestNewAllocsIndependentOfNodes(t *testing.T) {
	cost := func(nodes int) (allocs float64, bytes uint64) {
		cfg := PizDaint()
		cfg.Nodes = nodes
		build := func() {
			if _, err := New(cfg, 2, 1); err != nil {
				t.Fatal(err)
			}
		}
		allocs = testing.AllocsPerRun(100, build)
		return allocs, allocatedBytesPerRun(100, build)
	}
	oneAllocs, oneBytes := cost(1)
	fullAllocs, fullBytes := cost(PizDaint().Nodes)
	if oneAllocs != fullAllocs || oneBytes != fullBytes {
		t.Errorf("New(cfg, 2, s) costs %v allocs / %d B at 1 node but %v allocs / %d B at %d nodes",
			oneAllocs, oneBytes, fullAllocs, fullBytes, PizDaint().Nodes)
	}
}

// allocatedBytesPerRun is testing.AllocsPerRun for bytes: the average
// heap bytes one call of f allocates, after one warm-up call.
func allocatedBytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
