package bootstrap

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/stats"
)

func TestPercentileCIMeanCoverage(t *testing.T) {
	// Coverage of the percentile bootstrap for the mean of a normal
	// population: close to nominal.
	outer := rand.New(rand.NewPCG(1, 1))
	const trials = 200
	hits := 0
	for trial := 0; trial < trials; trial++ {
		xs := make([]float64, 40)
		for i := range xs {
			xs[i] = 10 + 2*outer.NormFloat64()
		}
		rng := rand.New(rand.NewPCG(uint64(trial), 7))
		iv, err := CI(xs, stats.Mean, Percentile, 500, 0.95, rng)
		if err != nil {
			t.Fatal(err)
		}
		if iv.Contains(10) {
			hits++
		}
	}
	cov := float64(hits) / trials
	if cov < 0.88 || cov > 0.995 {
		t.Errorf("coverage = %.3f, want ≈0.95", cov)
	}
}

func TestBCaImprovesSkewedCoverage(t *testing.T) {
	// For the CoV of a skewed population, BCa coverage should not trail
	// the percentile method's.
	trueCoV := math.Sqrt(math.Exp(0.25) - 1) // CoV of LogNormal(µ, 0.5)
	outer := rand.New(rand.NewPCG(2, 2))
	const trials = 150
	hitP, hitB := 0, 0
	for trial := 0; trial < trials; trial++ {
		xs := make([]float64, 60)
		for i := range xs {
			xs[i] = math.Exp(0.5 * outer.NormFloat64())
		}
		rngP := rand.New(rand.NewPCG(uint64(trial), 3))
		rngB := rand.New(rand.NewPCG(uint64(trial), 3))
		ivP, err := CI(xs, stats.CoV, Percentile, 600, 0.9, rngP)
		if err != nil {
			t.Fatal(err)
		}
		ivB, err := CI(xs, stats.CoV, BCa, 600, 0.9, rngB)
		if err != nil {
			t.Fatal(err)
		}
		if ivP.Contains(trueCoV) {
			hitP++
		}
		if ivB.Contains(trueCoV) {
			hitB++
		}
	}
	covP := float64(hitP) / trials
	covB := float64(hitB) / trials
	if covB+0.03 < covP {
		t.Errorf("BCa coverage %.3f clearly below percentile %.3f", covB, covP)
	}
	if covB < 0.75 {
		t.Errorf("BCa coverage %.3f too far below nominal 0.90", covB)
	}
}

func TestCIValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if _, err := CI(xs[:4], stats.Mean, Percentile, 500, 0.95, rng); err != ErrSampleSize {
		t.Errorf("err = %v", err)
	}
	if _, err := CI(xs, stats.Mean, Percentile, 50, 0.95, rng); err != ErrResamples {
		t.Errorf("err = %v", err)
	}
	if _, err := CI(xs, stats.Mean, Percentile, 500, 1.5, rng); err != ErrConfidence {
		t.Errorf("err = %v", err)
	}
}

func TestConstantSampleZeroWidth(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	xs := []float64{4, 4, 4, 4, 4, 4, 4, 4}
	iv, err := CI(xs, stats.Mean, Percentile, 200, 0.95, rng)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo != 4 || iv.Hi != 4 || iv.Center != 4 {
		t.Errorf("constant sample CI = %v", iv)
	}
}

func TestMedianCIAgainstRankMethod(t *testing.T) {
	// The bootstrap median CI should roughly agree with the rank-based
	// CI on the same data.
	rng := rand.New(rand.NewPCG(6, 6))
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = math.Exp(0.4 * rng.NormFloat64())
	}
	iv, err := CI(xs, stats.Median, Percentile, 2000, 0.95, rng)
	if err != nil {
		t.Fatal(err)
	}
	med := stats.Median(xs)
	if !iv.Contains(med) {
		t.Error("bootstrap CI must contain the sample median")
	}
	if iv.Width() <= 0 || iv.Width() > med {
		t.Errorf("implausible width %g", iv.Width())
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	xs := make([]float64, 30)
	src := rand.New(rand.NewPCG(9, 9))
	for i := range xs {
		xs[i] = src.NormFloat64()
	}
	a, err := CI(xs, stats.Mean, BCa, 500, 0.95, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := CI(xs, stats.Mean, BCa, 500, 0.95, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same seed produced different intervals")
	}
}

func TestDifferenceCI(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 10))
	xs := make([]float64, 80)
	ys := make([]float64, 80)
	for i := range xs {
		xs[i] = 5 + rng.NormFloat64()
		ys[i] = 7 + rng.NormFloat64()
	}
	iv, err := DifferenceCI(xs, ys, stats.Median, 800, 0.95, rng)
	if err != nil {
		t.Fatal(err)
	}
	// True median difference is 2; the CI should bracket it and exclude 0.
	if !iv.Contains(2) {
		t.Errorf("difference CI %v misses the true difference 2", iv)
	}
	if iv.Contains(0) {
		t.Errorf("difference CI %v should exclude 0", iv)
	}
	if _, err := DifferenceCI(xs[:3], ys, stats.Median, 800, 0.95, rng); err != ErrSampleSize {
		t.Error("tiny group should error")
	}
	if _, err := DifferenceCI(xs, ys, stats.Median, 10, 0.95, rng); err != ErrResamples {
		t.Error("too few resamples should error")
	}
	if _, err := DifferenceCI(xs, ys, stats.Median, 800, 0, rng); err != ErrConfidence {
		t.Error("bad confidence should error")
	}
}

func TestWorkerCountInvariance(t *testing.T) {
	// The interval AND the caller rng's position afterwards must be
	// bit-identical for every worker count (exactly two base draws are
	// consumed regardless of sharding).
	xs := make([]float64, 50)
	src := rand.New(rand.NewPCG(11, 11))
	for i := range xs {
		xs[i] = math.Exp(0.3 * src.NormFloat64())
	}
	for _, method := range []Method{Percentile, BCa} {
		run := func(workers int) (interval, next any) {
			rng := rand.New(rand.NewPCG(42, 43))
			iv, err := CIWorkers(xs, stats.Median, method, 400, 0.95, rng, workers)
			if err != nil {
				t.Fatalf("method=%v workers=%d: %v", method, workers, err)
			}
			return iv, rng.Uint64()
		}
		serialIV, serialNext := run(1)
		for _, workers := range []int{2, 3, 8, 0} {
			iv, next := run(workers)
			if iv != serialIV {
				t.Errorf("method=%v workers=%d: interval %v differs from serial %v",
					method, workers, iv, serialIV)
			}
			if next != serialNext {
				t.Errorf("method=%v workers=%d: caller rng advanced differently than serial",
					method, workers)
			}
		}
	}
}

func TestDifferenceCIWorkerCountInvariance(t *testing.T) {
	src := rand.New(rand.NewPCG(12, 12))
	xs := make([]float64, 40)
	ys := make([]float64, 60)
	for i := range xs {
		xs[i] = 5 + src.NormFloat64()
	}
	for i := range ys {
		ys[i] = 6 + src.NormFloat64()
	}
	run := func(workers int) (interval, next any) {
		rng := rand.New(rand.NewPCG(77, 78))
		iv, err := DifferenceCIWorkers(xs, ys, stats.Median, 400, 0.9, rng, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return iv, rng.Uint64()
	}
	serialIV, serialNext := run(1)
	for _, workers := range []int{2, 5, 0} {
		iv, next := run(workers)
		if iv != serialIV {
			t.Errorf("workers=%d: interval %v differs from serial %v", workers, iv, serialIV)
		}
		if next != serialNext {
			t.Errorf("workers=%d: caller rng advanced differently than serial", workers)
		}
	}
}

// TestStreamSeedsInjective pins the resample seed derivation to a
// bijective mixer. A splitmix-style finalizer with an even multiplier
// maps 0x1 and 0x8000000200000009 to the same value, which would hand
// two resamples of different calls the same PCG stream.
func TestStreamSeedsInjective(t *testing.T) {
	a1, a2 := streamSeeds(0x1, 0, 0)
	b1, b2 := streamSeeds(0x8000000200000009, 0, 0)
	if a1 == b1 || a2 == b2 {
		t.Errorf("distinct bases collide: (%#x, %#x) vs (%#x, %#x)", a1, a2, b1, b2)
	}
}
