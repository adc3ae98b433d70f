// Package stats provides the descriptive and inferential statistics used by
// the experiment harness: summary statistics, quantiles, boxplot five-number
// summaries (Figure 7 of the paper), Welch's unequal-variance t-test (the
// paper reports the API-vs-daemon power difference on the Xeon Phi as
// "statistically significant"), histograms, and simple linear fits.
//
// All functions are pure and operate on plain []float64 so they can be used
// from tests, benchmarks, and report renderers without adapters.
package stats

import (
	"math"
	"sort"
)

// Summary holds the standard descriptive statistics of a sample.
type Summary struct {
	N        int
	Mean     float64
	Variance float64 // unbiased (n-1) sample variance
	StdDev   float64
	Min      float64
	Max      float64
	Sum      float64
}

// Describe computes a Summary of xs using Welford's numerically stable
// one-pass algorithm. An empty input returns a zero Summary with NaN
// Min/Max.
func Describe(xs []float64) Summary {
	s := Summary{Min: math.NaN(), Max: math.NaN()}
	var mean, m2 float64
	for i, x := range xs {
		s.Sum += x
		delta := x - mean
		mean += delta / float64(i+1)
		m2 += delta * (x - mean)
		if i == 0 || x < s.Min {
			s.Min = x
		}
		if i == 0 || x > s.Max {
			s.Max = x
		}
	}
	s.N = len(xs)
	if s.N > 0 {
		s.Mean = mean
	}
	if s.N > 1 {
		s.Variance = m2 / float64(s.N-1)
		s.StdDev = math.Sqrt(s.Variance)
	}
	return s
}

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Quantile returns the p-quantile (0 <= p <= 1) of xs using linear
// interpolation between order statistics (R's default "type 7"). It returns
// NaN for an empty slice and panics on p outside [0, 1]. xs need not be
// sorted.
func Quantile(xs []float64, p float64) float64 {
	if p < 0 || p > 1 {
		panic("stats: Quantile p out of [0,1]")
	}
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, p)
}

func quantileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := h - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

// Median returns the 0.5-quantile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Boxplot is the Tukey box-and-whisker summary of a sample, as drawn in the
// paper's Figure 7.
type Boxplot struct {
	N           int
	Min, Max    float64 // extreme data values
	Q1, Med, Q3 float64
	LowWhisker  float64 // smallest value >= Q1 - 1.5*IQR
	HighWhisker float64 // largest value <= Q3 + 1.5*IQR
	Outliers    []float64
	IQR         float64
}

// MakeBoxplot computes the five-number summary with Tukey 1.5*IQR whiskers.
// It returns a zero Boxplot for an empty sample.
func MakeBoxplot(xs []float64) Boxplot {
	if len(xs) == 0 {
		return Boxplot{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	b := Boxplot{
		N:   len(sorted),
		Min: sorted[0],
		Max: sorted[len(sorted)-1],
		Q1:  quantileSorted(sorted, 0.25),
		Med: quantileSorted(sorted, 0.5),
		Q3:  quantileSorted(sorted, 0.75),
	}
	b.IQR = b.Q3 - b.Q1
	loFence := b.Q1 - 1.5*b.IQR
	hiFence := b.Q3 + 1.5*b.IQR
	b.LowWhisker, b.HighWhisker = b.Q1, b.Q3
	for i, v := range sorted {
		if v >= loFence {
			b.LowWhisker = v
			break
		}
		_ = i
	}
	for i := len(sorted) - 1; i >= 0; i-- {
		if sorted[i] <= hiFence {
			b.HighWhisker = sorted[i]
			break
		}
	}
	for _, v := range sorted {
		if v < loFence || v > hiFence {
			b.Outliers = append(b.Outliers, v)
		}
	}
	return b
}

// TTestResult reports Welch's unequal-variance two-sample t-test.
type TTestResult struct {
	T  float64 // t statistic (sign: mean(a) - mean(b))
	DF float64 // Welch–Satterthwaite degrees of freedom
	P  float64 // two-sided p-value
}

// WelchT performs Welch's two-sample t-test of the null hypothesis that a
// and b have equal means, without assuming equal variances. Each sample
// needs at least two values; otherwise the result is all-NaN.
func WelchT(a, b []float64) TTestResult {
	if len(a) < 2 || len(b) < 2 {
		return TTestResult{T: math.NaN(), DF: math.NaN(), P: math.NaN()}
	}
	sa, sb := Describe(a), Describe(b)
	va := sa.Variance / float64(sa.N)
	vb := sb.Variance / float64(sb.N)
	se := math.Sqrt(va + vb)
	if se == 0 {
		// Identical constant samples: no evidence either way if means equal,
		// infinite evidence if they differ.
		if sa.Mean == sb.Mean {
			return TTestResult{T: 0, DF: float64(sa.N + sb.N - 2), P: 1}
		}
		return TTestResult{T: math.Inf(sign(sa.Mean - sb.Mean)), DF: float64(sa.N + sb.N - 2), P: 0}
	}
	t := (sa.Mean - sb.Mean) / se
	df := (va + vb) * (va + vb) /
		(va*va/float64(sa.N-1) + vb*vb/float64(sb.N-1))
	p := 2 * studentTSF(math.Abs(t), df)
	if p > 1 {
		p = 1
	}
	return TTestResult{T: t, DF: df, P: p}
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// studentTSF returns P(T > t) for Student's t distribution with df degrees
// of freedom, via the regularized incomplete beta function.
func studentTSF(t, df float64) float64 {
	if math.IsNaN(t) || math.IsNaN(df) || df <= 0 {
		return math.NaN()
	}
	x := df / (df + t*t)
	return 0.5 * regIncBeta(df/2, 0.5, x)
}

// regIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion (Numerical Recipes §6.4).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(lbeta + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - front*betacf(b, a, 1-x)/b
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// betacf evaluates the continued fraction for the incomplete beta function
// by the modified Lentz method.
func betacf(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// Histogram bins xs into nbins equal-width bins over [min, max]. Counts[i]
// covers [Edges[i], Edges[i+1]); the last bin is closed on the right.
type Histogram struct {
	Edges  []float64 // nbins+1 edges
	Counts []int     // nbins counts
}

// MakeHistogram builds a Histogram. nbins must be positive; an empty input
// returns a Histogram with zero counts over [0, 1].
func MakeHistogram(xs []float64, nbins int) Histogram {
	if nbins <= 0 {
		panic("stats: MakeHistogram with non-positive nbins")
	}
	h := Histogram{Edges: make([]float64, nbins+1), Counts: make([]int, nbins)}
	if len(xs) == 0 {
		for i := range h.Edges {
			h.Edges[i] = float64(i) / float64(nbins)
		}
		return h
	}
	s := Describe(xs)
	lo, hi := s.Min, s.Max
	if lo == hi {
		hi = lo + 1
	}
	width := (hi - lo) / float64(nbins)
	for i := range h.Edges {
		h.Edges[i] = lo + float64(i)*width
	}
	for _, x := range xs {
		i := int((x - lo) / width)
		if i >= nbins {
			i = nbins - 1
		}
		if i < 0 {
			i = 0
		}
		h.Counts[i]++
	}
	return h
}

// LinearFit is the least-squares line y = Intercept + Slope*x with its
// coefficient of determination.
type LinearFit struct {
	Slope, Intercept, R2 float64
}

// FitLine computes an ordinary least-squares fit of ys against xs. The
// slices must have equal length >= 2; otherwise all fields are NaN.
func FitLine(xs, ys []float64) LinearFit {
	if len(xs) != len(ys) || len(xs) < 2 {
		return LinearFit{math.NaN(), math.NaN(), math.NaN()}
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{math.NaN(), math.NaN(), math.NaN()}
	}
	slope := sxy / sxx
	fit := LinearFit{Slope: slope, Intercept: my - slope*mx}
	if syy == 0 {
		fit.R2 = 1
	} else {
		fit.R2 = sxy * sxy / (sxx * syy)
	}
	return fit
}
