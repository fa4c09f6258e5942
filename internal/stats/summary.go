package stats

import (
	"fmt"
	"math"

	"repro/internal/dist"
)

// Kind classifies a measured metric per the paper's taxonomy (§3.1.1):
// costs have atomic units and linear influence (seconds, joules, flop);
// rates are cost quotients (flop/s); ratios are dimensionless
// normalizations (speedup, fraction of peak).
type Kind int

const (
	// Cost is a linear metric with an atomic unit (time, energy, flop).
	Cost Kind = iota
	// Rate is a quotient of costs whose denominator carries the primary
	// semantic meaning (flop/s, B/s).
	Rate
	// Ratio is a dimensionless normalization (speedup, % of peak).
	Ratio
)

// String returns the metric-kind name.
func (k Kind) String() string {
	switch k {
	case Cost:
		return "cost"
	case Rate:
		return "rate"
	case Ratio:
		return "ratio"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// SummarizeMean returns the statistically correct central summary for the
// metric kind, implementing Rules 3 and 4:
//
//   - Cost  → arithmetic mean.
//   - Rate  → harmonic mean.
//   - Ratio → geometric mean, together with a non-nil error value
//     ErrRatioSummary reminding the caller that summarizing ratios
//     is discouraged and the underlying costs should be averaged
//     before normalization where available.
func SummarizeMean(kind Kind, xs []float64) (float64, error) {
	switch kind {
	case Cost:
		if len(xs) == 0 {
			return math.NaN(), ErrEmpty
		}
		return Mean(xs), nil
	case Rate:
		return HarmonicMean(xs)
	case Ratio:
		g, err := GeometricMean(xs)
		if err != nil {
			return g, err
		}
		return g, ErrRatioSummary
	}
	return math.NaN(), fmt.Errorf("stats: unknown metric kind %d", int(kind))
}

// ErrRatioSummary flags a geometric-mean summary of ratios; per Rule 4 the
// costs or rates underlying the ratios should be summarized instead. The
// returned value is still usable, the error is advisory.
var ErrRatioSummary = fmt.Errorf("stats: summarizing ratios is discouraged (Rule 4); average the underlying costs or rates instead")

// RateFromCosts summarizes a rate correctly from its raw numerators and
// denominators, e.g. flop counts and execution times: it averages both
// costs first and then forms the quotient, the approach the paper
// recommends over averaging per-run rates (§3.1.1, HPL example).
func RateFromCosts(numerators, denominators []float64) (float64, error) {
	if len(numerators) == 0 || len(denominators) == 0 {
		return math.NaN(), ErrEmpty
	}
	if len(numerators) != len(denominators) {
		return math.NaN(), fmt.Errorf("stats: %d numerators vs %d denominators",
			len(numerators), len(denominators))
	}
	d := Mean(denominators)
	if d == 0 {
		return math.NaN(), fmt.Errorf("stats: zero mean denominator")
	}
	return Mean(numerators) / d, nil
}

// Summary collects the descriptive statistics the paper asks experimenters
// to report for a nondeterministic sample: central tendency, spread,
// robust rank statistics, and extremes.
type Summary struct {
	N        int
	Mean     float64
	StdDev   float64
	CoV      float64
	Min      float64
	Q1       float64 // 25th percentile
	Median   float64
	Q3       float64 // 75th percentile
	P95      float64 // 95th percentile
	P99      float64 // 99th percentile
	Max      float64
	Skewness float64
}

// Summarize computes a Summary of xs through the Sample fast path: one
// sort, one Welford pass, one skewness pass.
func Summarize(xs []float64) Summary {
	var s Sample
	s.Reset(xs)
	return s.Summarize()
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf(
		"n=%d mean=%.6g sd=%.3g cov=%.3g min=%.6g q1=%.6g med=%.6g q3=%.6g p95=%.6g p99=%.6g max=%.6g",
		s.N, s.Mean, s.StdDev, s.CoV, s.Min, s.Q1, s.Median, s.Q3, s.P95, s.P99, s.Max)
}

// TukeyFences returns the outlier fences
// [q1 − k·IQR, q3 + k·IQR] for the sample, with the conventional k = 1.5
// (paper §3.1.3, "On Removing Outliers"). Larger k is more conservative.
func TukeyFences(xs []float64, k float64) (lo, hi float64) {
	s := Sorted(xs)
	q1 := Quantile(s, 0.25)
	q3 := Quantile(s, 0.75)
	iqr := q3 - q1
	return q1 - k*iqr, q3 + k*iqr
}

// TukeyFilter partitions xs into values inside the Tukey fences and the
// removed outliers, preserving input order. Per the paper, the number of
// removed outliers must be reported for each experiment; callers get it
// as len(outliers).
func TukeyFilter(xs []float64, k float64) (kept, outliers []float64) {
	if len(xs) == 0 {
		return nil, nil
	}
	lo, hi := TukeyFences(xs, k)
	kept = make([]float64, 0, len(xs))
	for _, x := range xs {
		if x < lo || x > hi {
			outliers = append(outliers, x)
		} else {
			kept = append(kept, x)
		}
	}
	return kept, outliers
}

// LogTransform returns ln(x) for every observation; it normalizes
// right-skewed log-normal measurement data (paper §3.1.2,
// "Log-normalization"). All values must be strictly positive.
func LogTransform(xs []float64) ([]float64, error) {
	out := make([]float64, len(xs))
	for i, x := range xs {
		if x <= 0 {
			return nil, ErrNonPositive
		}
		out[i] = math.Log(x)
	}
	return out, nil
}

// BlockNormalize averages consecutive blocks of k observations, the CLT
// normalization strategy of §3.1.2 ("Norm K=100", "Norm K=1000" in Fig 2).
// A trailing partial block is dropped so every output value averages
// exactly k inputs. It returns ErrEmpty when fewer than k observations
// are available.
func BlockNormalize(xs []float64, k int) ([]float64, error) {
	if k <= 0 {
		return nil, fmt.Errorf("stats: block size %d must be positive", k)
	}
	n := len(xs) / k
	if n == 0 {
		return nil, ErrEmpty
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = Mean(xs[i*k : (i+1)*k])
	}
	return out, nil
}

// QQPoints pairs each sorted observation with the standard normal
// quantile of its plotting position (i−0.5)/n, producing the data behind
// a normal Q-Q plot (paper Fig 2, bottom row). A near-linear relation
// indicates normality.
type QQPoint struct {
	Theoretical float64 // standard normal quantile
	Sample      float64 // observed order statistic
}

// QQPoints computes normal Q-Q plot coordinates for xs.
func QQPoints(xs []float64) []QQPoint {
	return QQPointsSorted(Sorted(xs))
}

// QQPointsSorted is QQPoints for an already-sorted sample (e.g. a
// Sample's cached view), skipping the re-sort.
func QQPointsSorted(sorted []float64) []QQPoint {
	n := len(sorted)
	pts := make([]QQPoint, n)
	for i, v := range sorted {
		p := (float64(i) + 0.5) / float64(n)
		pts[i] = QQPoint{Theoretical: dist.NormalQuantile(p), Sample: v}
	}
	return pts
}

// QQCorrelation returns the Pearson correlation of the Q-Q points, a
// simple scalar straightness diagnostic (1 means perfectly normal order
// statistics).
func QQCorrelation(xs []float64) float64 {
	return QQCorrelationSorted(Sorted(xs))
}

// QQCorrelationSorted is QQCorrelation over a pre-sorted sample.
func QQCorrelationSorted(sorted []float64) float64 {
	pts := QQPointsSorted(sorted)
	if len(pts) < 3 {
		return math.NaN()
	}
	tx := make([]float64, len(pts))
	ty := make([]float64, len(pts))
	for i, p := range pts {
		tx[i] = p.Theoretical
		ty[i] = p.Sample
	}
	return Correlation(tx, ty)
}

// Correlation returns the Pearson product-moment correlation of two
// equal-length samples (NaN if lengths differ or n < 2 or a sample is
// constant).
func Correlation(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}
