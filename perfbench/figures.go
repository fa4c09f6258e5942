package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"repro/internal/ci"
	"repro/internal/cluster"
	"repro/internal/figures"
	"repro/internal/htest"
	"repro/internal/qreg"
	"repro/internal/stats"
	"repro/internal/survey"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// figureSizes are the experiment sizes of one `figures all` pass.
type figureSizes struct {
	samples  int // fig2/3/4/7c per-system samples
	hplN     int // fig1 matrix dimension
	fig1Runs int
	fig5Runs int // fig5 and fig6 runs
	reps     int // fig7ab and weak repetitions
}

var (
	// paperFigures are cmd/figures' defaults: the paper's sizes.
	paperFigures = figureSizes{samples: 1000000, hplN: 314000, fig1Runs: 50, fig5Runs: 1000, reps: 10}
	// smallFigures are the sizes the figure tests use: large enough for
	// every headline check to hold, about a tenth of the work.
	smallFigures = figureSizes{samples: 60000, hplN: 32768, fig1Runs: 50, fig5Runs: 150, reps: 5}
	// warmupFigures touch every experiment's code path at a fraction of a
	// second per pass; their output is not checked.
	warmupFigures = figureSizes{samples: 20000, hplN: 8192, fig1Runs: 5, fig5Runs: 30, reps: 2}
)

// allExperiments is cmd/figures' canonical `all` order.
var allExperiments = []string{
	"table1", "means", "fig1", "fig2", "fig3", "fig4",
	"fig5", "fig6", "fig7ab", "fig7c", "weak",
}

// figureCheck verifies one experiment's output after the timed window.
// err reports a broken output: a wrong shape, an inconsistency, a value
// that is fixed by construction. notHeld lists statistical headline
// findings that did not hold for this seed. At paper sizes several of
// them hold for most seeds but not all (see README.md), so they are
// reported rather than failed.
type figureCheck func() (notHeld []string, err error)

// runFigure runs one experiment as cmd/figures does and returns its check.
func runFigure(name string, w io.Writer, sz figureSizes, seed uint64) (figureCheck, error) {
	var soft []string
	expect := func(ok bool, finding string) {
		if !ok {
			soft = append(soft, name+": "+finding)
		}
	}
	switch name {
	case "table1":
		d, err := figures.Table1(w, seed)
		return func() ([]string, error) {
			a := d.Aggregate
			if a.ApplicablePapers != 95 || a.DesignCounts[survey.Processor] != 79 ||
				a.DesignCounts[survey.CodeAvailable] != 7 || a.AnalysisCounts[survey.Mean] != 51 ||
				a.AnalysisCounts[survey.Variation] != 17 {
				return nil, fmt.Errorf("table1 counts drifted from the paper")
			}
			return nil, nil
		}, err
	case "means":
		d, err := figures.MeansExample(w)
		return func() ([]string, error) {
			if d.MeanTimeSec != 50 || d.RateFromMeanTime != 2 || d.ArithMeanOfRates != 4.5 ||
				math.Abs(d.HarmonicMeanRates-2) > 1e-12 || math.Abs(d.GeoMeanOfRatios-0.29) > 0.003 {
				return nil, fmt.Errorf("means example drifted: %+v", d)
			}
			return nil, nil
		}, err
	case "fig1":
		d, err := figures.Fig1(w, sz.fig1Runs, sz.hplN, seed)
		return func() ([]string, error) {
			switch {
			case len(d.TimesSec) != sz.fig1Runs:
				return nil, fmt.Errorf("fig1: %d runs", len(d.TimesSec))
			case !(d.TflopsAtMin >= d.TflopsMedian && d.TflopsMedian >= d.TflopsAtMax):
				return nil, fmt.Errorf("fig1: rate ordering inconsistent with time ordering")
			case d.MedianCI99.Lo > d.Summary.Median || d.MedianCI99.Hi < d.Summary.Median:
				return nil, fmt.Errorf("fig1: median CI does not bracket the median")
			}
			expect(d.Summary.Mean > d.Summary.Median*0.999, "completion times right-skewed (mean > median)")
			expect(d.SpreadRel >= 0.05 && d.SpreadRel <= 0.5, fmt.Sprintf("spread %.3f in [0.05, 0.5]", d.SpreadRel))
			expect(d.EffAtBest >= 0.6 && d.EffAtBest <= 0.95, fmt.Sprintf("best efficiency %.3f in [0.6, 0.95]", d.EffAtBest))
			return soft, nil
		}, err
	case "fig2":
		d, err := figures.Fig2(w, sz.samples, seed)
		return func() ([]string, error) {
			if len(d.Variants) != 4 {
				return nil, fmt.Errorf("fig2: %d variants", len(d.Variants))
			}
			orig, logn, k100, k1000 := d.Variants[0], d.Variants[1], d.Variants[2], d.Variants[3]
			if orig.Skewness <= 0.2 || math.Abs(logn.Skewness) >= orig.Skewness ||
				!(k100.QQCorr > orig.QQCorr) || k1000.QQCorr < 0.97 {
				return nil, fmt.Errorf("fig2: normalization did not improve normality")
			}
			return nil, nil
		}, err
	case "fig3":
		d, err := figures.Fig3(w, sz.samples, seed)
		return func() ([]string, error) {
			if !d.Differs || !(d.Pilatus.Summary.Median > d.Dora.Summary.Median) {
				return nil, fmt.Errorf("fig3: medians not significantly different in the paper's direction (%v)", d.KW)
			}
			expect(d.Pilatus.Summary.Min < d.Dora.Summary.Min, "Pilatus has the lower minimum")
			expect(d.Pilatus.Summary.Max > d.Dora.Summary.Max, "Pilatus has the heavier extreme tail")
			expect(d.MeanDiff >= 0.02 && d.MeanDiff <= 0.4, fmt.Sprintf("mean difference %.4g µs in [0.02, 0.4]", d.MeanDiff))
			return soft, nil
		}, err
	case "fig4":
		d, err := figures.Fig4(w, sz.samples, seed)
		return func() ([]string, error) {
			if !d.SignFlip {
				return nil, fmt.Errorf("fig4: no significant sign flip across quantiles")
			}
			prev := 0.0
			for _, p := range d.Points {
				if (p.Tau == 0.01 && p.Difference >= 0) || (p.Tau == 0.5 && p.Difference <= 0) {
					return nil, fmt.Errorf("fig4: difference at tau=%g has the wrong sign", p.Tau)
				}
				if p.Intercept < prev {
					return nil, fmt.Errorf("fig4: intercepts not monotone at tau=%g", p.Tau)
				}
				prev = p.Intercept
			}
			return nil, nil
		}, err
	case "fig5":
		d, err := figures.Fig5(w, sz.fig5Runs, seed)
		return func() ([]string, error) {
			if len(d.Points) != 63 {
				return nil, fmt.Errorf("fig5: %d points", len(d.Points))
			}
			byP := map[int]float64{}
			for _, pt := range d.Points {
				byP[pt.P] = pt.MedianUs
			}
			for _, p := range []int{4, 8, 16, 32} {
				expect(byP[p] < byP[p+1], fmt.Sprintf("T(%d) beats T(%d)", p, p+1))
			}
			expect(byP[64] > byP[2], "completion grows with process count")
			return soft, nil
		}, err
	case "fig6":
		d, err := figures.Fig6(w, sz.fig5Runs, seed)
		return func() ([]string, error) {
			if len(d.PerProcess) != 64 || len(d.PerProcess[0]) != sz.fig5Runs {
				return nil, fmt.Errorf("fig6: data shape %dx%d", len(d.PerProcess), len(d.PerProcess[0]))
			}
			if d.Cross.Homogeneous || d.Cross.MaxOfMeans <= d.Cross.MedianOfMeans {
				return nil, fmt.Errorf("fig6: per-process differences not significant")
			}
			return nil, nil
		}, err
	case "fig7ab":
		d, err := figures.Fig7ab(w, sz.reps, seed)
		return func() ([]string, error) {
			beats := false
			for _, pt := range d.Points {
				if !(pt.IdealMs <= pt.AmdahlMs+1e-9 && pt.AmdahlMs <= pt.ParallelOvhdMs+1e-9) {
					return nil, fmt.Errorf("fig7ab: bound models out of order at p=%d", pt.P)
				}
				beats = beats || pt.TimeMs < pt.ParallelOvhdMs*0.98*(1-1e-9)
				expect(pt.Speedup <= float64(pt.P), fmt.Sprintf("no super-linear speedup (p=%d: %.3g)", pt.P, pt.Speedup))
			}
			// The figure must report every measurement that beats a bound.
			if beats != (len(d.Violations) > 0) {
				return nil, fmt.Errorf("fig7ab: %d violations reported, measurements beating a bound: %v", len(d.Violations), beats)
			}
			expect(len(d.Violations) == 0, fmt.Sprintf("measurements never beat the bounds (%d violations)", len(d.Violations)))
			return soft, nil
		}, err
	case "fig7c":
		d, err := figures.Fig7c(w, sz.samples, seed)
		return func() ([]string, error) {
			b := d.Box
			if !(b.Q1 < b.Median && b.Median < b.Q3) || b.Mean <= b.Median || b.NumOutside == 0 {
				return nil, fmt.Errorf("fig7c: box statistics lost their shape")
			}
			return nil, nil
		}, err
	case "weak":
		d, err := figures.WeakScaling(w, sz.reps, seed)
		return func() ([]string, error) {
			if len(d.Points) != 6 {
				return nil, fmt.Errorf("weak: %d points", len(d.Points))
			}
			base := d.Points[0].TimeMs
			for _, pt := range d.Points {
				expect(pt.TimeMs >= base*0.95 && pt.TimeMs <= base*1.25 && pt.Efficiency <= 1.02,
					fmt.Sprintf("p=%d within weak-scaling range of the base", pt.P))
			}
			expect(d.Points[len(d.Points)-1].Efficiency >= 0.8, "efficiency at the largest p at least 0.8")
			return soft, nil
		}, err
	}
	return nil, fmt.Errorf("unknown experiment %q", name)
}

// figuresWorkload: one op is one experiment of `figures all`, run in CLI
// order; pass p uses seed+p, and its output goes to a hashing sink.
type figuresWorkload struct {
	seed    uint64
	sz      figureSizes
	passes  int
	hashes  [][]byte        // per pass: hash of the framed `all` output
	checks  [][]figureCheck // per pass, per experiment
	notHeld []string        // statistical headline findings that did not hold
}

func newFiguresWorkload(seed uint64, s size) *figuresWorkload {
	sz := paperFigures
	if s == smallSize {
		sz = smallFigures
	}
	return &figuresWorkload{seed: seed, sz: sz}
}

func (f *figuresWorkload) settings() string {
	return "workers: figures -j 1 (experiments serial), verification re-run -j 2; journal: none"
}

// frame writes one experiment's output the way `figures all` frames it.
func frame(h io.Writer, name string, out []byte) {
	fmt.Fprintf(h, "==================== %s ====================\n", name)
	h.Write(out)
	fmt.Fprintln(h)
}

// setup runs one warm-up pass at warm-up sizes (code and tables load);
// there is no input to build besides the seed.
func (f *figuresWorkload) setup(ctx context.Context) error {
	for _, name := range allExperiments {
		if _, err := runFigure(name, io.Discard, warmupFigures, f.seed); err != nil {
			return fmt.Errorf("warm-up %s: %w", name, err)
		}
	}
	return nil
}

func (f *figuresWorkload) step(ctx context.Context) []opTime {
	seed := f.seed + uint64(f.passes)
	h := sha256.New()
	var buf bytes.Buffer
	ops := make([]opTime, 0, len(allExperiments))
	checks := make([]figureCheck, 0, len(allExperiments))
	for _, name := range allExperiments {
		buf.Reset()
		_, span := telemetry.StartSpan(ctx, "op", name)
		t := time.Now()
		check, err := runFigure(name, &buf, f.sz, seed)
		d := time.Since(t)
		span.End()
		frame(h, name, buf.Bytes())
		ops = append(ops, opTime{d, err})
		checks = append(checks, check)
	}
	f.hashes = append(f.hashes, h.Sum(nil))
	f.checks = append(f.checks, checks)
	f.passes++
	return ops
}

// rerunConcurrent renders pass 0 again with two experiments in flight, the
// way `figures all -j 2` does, and returns the hash of its framed output.
func (f *figuresWorkload) rerunConcurrent() ([]byte, error) {
	outs := make([]bytes.Buffer, len(allExperiments))
	errs := make([]error, len(allExperiments))
	next := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				_, errs[i] = runFigure(allExperiments[i], &outs[i], f.sz, f.seed)
			}
		}()
	}
	for i := range allExperiments {
		next <- i
	}
	close(next)
	wg.Wait()
	h := sha256.New()
	for i, name := range allExperiments {
		if errs[i] != nil {
			return nil, fmt.Errorf("%s: %w", name, errs[i])
		}
		frame(h, name, outs[i].Bytes())
	}
	return h.Sum(nil), nil
}

func (f *figuresWorkload) verify(ctx context.Context) (int, error) {
	failed := 0
	var first error
	for p, checks := range f.checks {
		for _, check := range checks {
			if check == nil {
				continue // the op itself failed and is already counted
			}
			notHeld, err := check()
			for _, n := range notHeld {
				f.notHeld = append(f.notHeld, fmt.Sprintf("seed %d %s", f.seed+uint64(p), n))
			}
			if err != nil {
				failed++
				if first == nil {
					first = fmt.Errorf("pass %d (seed %d): %w", p, f.seed+uint64(p), err)
				}
			}
		}
	}
	if len(f.hashes) > 0 {
		h, err := f.rerunConcurrent()
		if err != nil {
			return failed, fmt.Errorf("concurrent re-run of pass 0: %w", err)
		}
		if !bytes.Equal(h, f.hashes[0]) {
			return failed, fmt.Errorf("pass 0 re-run with two experiments in flight changed the output bytes")
		}
	}
	return failed, first
}

// findings lists the statistical headline findings that did not hold.
func (f *figuresWorkload) findings() []string { return f.notHeld }

// probe measures, on the last traced pass's seed, what the figures reach
// only from inside an experiment: report rendering (FigN(w) − FigN(nil)),
// HPL runs, the analysis calls on Fig3's samples, machine construction
// and ping-pong messages.
func (f *figuresWorkload) probe(ctx context.Context, t *traceRun) error {
	seed := f.seed + uint64(f.passes-1)
	// Render time: each experiment with and without a writer, alternated
	// on the same seed, the fastest of renderPairs runs on each side.
	// Interference on a shared machine only slows a run, so the minima
	// are the least disturbed; render is small next to the experiments'
	// compute, and a single pair is dominated by noise.
	const renderPairs = 3
	var render time.Duration
	var buf bytes.Buffer
	for _, name := range allExperiments {
		best := [2]time.Duration{math.MaxInt64, math.MaxInt64}
		for i := 0; i < renderPairs; i++ {
			for k, w := range []io.Writer{&buf, nil} {
				buf.Reset()
				tt := time.Now()
				if _, err := runFigure(name, w, f.sz, seed); err != nil {
					return fmt.Errorf("probe %s: %w", name, err)
				}
				best[k] = min(best[k], time.Since(tt))
			}
		}
		render += best[0] - best[1]
	}
	render = max(render, 0)
	t.set("report.render_ms", ms(render)/float64(len(allExperiments)), "ms")
	t.move(layerOther, layerReport, render.Seconds()*float64(t.steps))

	// HPL exactly as Fig1 configures it.
	cfg := cluster.PizDaint()
	cfg.Nodes = 64
	cfg.FlopsPerSec = 1.845e11
	cfg.BandwidthBps = 4e10
	ranks := cfg.Nodes * cfg.CoresPerNode
	hpl := workloads.HPLConfig{N: f.sz.hplN, NB: max(f.sz.hplN/307, 8), P: 16, Q: ranks / 16, RunSigma: 0.025, RunSkew: 0.045}
	m, err := cluster.New(cfg, hpl.Ranks(), seed)
	if err != nil {
		return err
	}
	msgs := telemetry.Default().Counter("cluster.messages")
	var hplMsgs float64
	var probeErr error
	hplRun := time.Duration(medianTrial(func() float64 {
		msg0 := msgs.Value()
		tt := time.Now()
		if _, err := workloads.RunHPL(m, hpl); err != nil {
			probeErr = err
		}
		d := time.Since(tt)
		hplMsgs = float64(msgs.Value() - msg0)
		return float64(d)
	}))
	if probeErr != nil {
		return probeErr
	}
	t.set("hpl.run_ms", ms(hplRun), "ms")
	hplPerPass := hplRun.Seconds() * float64(f.sz.fig1Runs)
	t.move(layerOther, layerWorkloads, hplPerPass*float64(t.steps))

	// The analysis Fig3 runs on its own samples; Fig4 repeats Fig3's
	// analysis (it calls Fig3(nil)) and adds the quantile regression.
	d, err := figures.Fig3(nil, f.sz.samples, seed)
	if err != nil {
		return err
	}
	timeIt := func(fn func() error) time.Duration {
		return time.Duration(medianTrial(func() float64 {
			tt := time.Now()
			if err := fn(); err != nil && probeErr == nil {
				probeErr = err
			}
			return float64(time.Since(tt))
		}))
	}
	sum := timeIt(func() error { stats.Summarize(d.DoraRaw); return nil })
	mci := timeIt(func() error { _, err := ci.MedianCI(d.DoraRaw, 0.99); return err })
	kw := timeIt(func() error { _, err := htest.KruskalWallis(d.DoraRaw, d.PilatusRaw); return err })
	taus := []float64{0.01, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 0.999}
	qr := timeIt(func() error { _, err := qreg.TwoGroupQuantiles(d.DoraRaw, d.PilatusRaw, taus, 0.95); return err })
	if probeErr != nil {
		return probeErr
	}
	t.set("stats.summarize_ms", ms(sum), "ms")
	t.set("ci.median_ci_ms", ms(mci), "ms")
	t.set("htest.kruskal_wallis_ms", ms(kw), "ms")
	t.set("qreg.two_group_ms", ms(qr), "ms")
	analysisPerPass := 2*(2*sum+2*mci+kw) + qr
	t.move(layerOther, layerAnalysis, analysisPerPass.Seconds()*float64(t.steps))

	// Machine construction for the shapes the figures build, and the cost
	// of a ping-pong message on Fig3's machine.
	dora := cluster.PizDora()
	dora.DaemonNodes = 0
	shapes := []struct {
		cfg   cluster.Config
		ranks int
	}{{dora, dora.CoresPerNode + 1}, {cluster.Pilatus(), cluster.Pilatus().CoresPerNode + 1}, {cfg, ranks}}
	for _, s := range shapes {
		if err := t.probeNew(s.cfg, s.ranks, seed, 5); err != nil {
			return err
		}
	}
	pp, err := cluster.New(dora, dora.CoresPerNode+1, seed)
	if err != nil {
		return err
	}
	t.probeMessages(func() { pp.PingPong(0, dora.CoresPerNode, 64, 100000) })
	nonHPL := t.win.counter("cluster.messages") - hplMsgs*float64(f.sz.fig1Runs*t.steps)
	t.move(layerOther, layerCluster, max(nonHPL, 0)*t.nsPerMessage/1e9+t.win.counter("cluster.machines")*t.newUs/1e6)
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
