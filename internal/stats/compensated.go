package stats

import (
	"math"
	"slices"
)

// This file holds the error-free transformations and double-double
// (~106-bit) arithmetic behind the telemetry layer's prefix sums and
// the compensated moment computations: TwoSum/TwoProd building blocks,
// a DD running accumulator, and MomentsFromPowerSums, which recovers
// the windowed descriptive moments from raw Σx, Σx², Σx³, Σx⁴ without
// catastrophic cancellation.

// TwoSum returns s = fl(a+b) and the exact rounding error e, so that
// a + b == s + e exactly (Knuth's branch-free error-free addition).
func TwoSum(a, b float64) (s, e float64) {
	s = a + b
	bv := s - a
	e = (a - s + bv) + (b - bv)
	return s, e
}

// twoProd returns p = fl(a*b) and the exact error e via FMA, so that
// a*b == p + e exactly.
func twoProd(a, b float64) (p, e float64) {
	p = a * b
	e = math.FMA(a, b, -p)
	return p, e
}

// DD is an unevaluated double-double sum Hi + Lo carrying roughly 106
// bits of significand. The zero value is an accumulator at zero.
type DD struct {
	Hi, Lo float64
}

// Sq returns the exact double-double square of x. Power sums must be
// accumulated from exact squares — a rounded x*x already discards the
// low bits that make Σx²−n·mean² recoverable for large baselines.
func Sq(x float64) DD {
	p, e := twoProd(x, x)
	return DD{Hi: p, Lo: e}
}

// Add folds a float64 into the accumulator.
func (d *DD) Add(x float64) {
	s, e := TwoSum(d.Hi, x)
	e += d.Lo
	d.Hi, d.Lo = TwoSum(s, e)
}

// AddDD folds another double-double into the accumulator.
func (d *DD) AddDD(o DD) {
	s, e := TwoSum(d.Hi, o.Hi)
	e += d.Lo + o.Lo
	d.Hi, d.Lo = TwoSum(s, e)
}

// Sub returns d - o.
func (d DD) Sub(o DD) DD {
	s, e := TwoSum(d.Hi, -o.Hi)
	e += d.Lo - o.Lo
	s, e = TwoSum(s, e)
	return DD{Hi: s, Lo: e}
}

// Mul returns the double-double product d * o.
func (d DD) Mul(o DD) DD {
	p, e := twoProd(d.Hi, o.Hi)
	e += d.Hi*o.Lo + d.Lo*o.Hi
	p, e = TwoSum(p, e)
	return DD{Hi: p, Lo: e}
}

// Scale returns d * x for a plain float64 x.
func (d DD) Scale(x float64) DD {
	p, e := twoProd(d.Hi, x)
	e += d.Lo * x
	p, e = TwoSum(p, e)
	return DD{Hi: p, Lo: e}
}

// Div returns d / x for a plain float64 x (one Newton refinement step).
func (d DD) Div(x float64) DD {
	q := d.Hi / x
	// Residual of the first quotient digit, computed exactly.
	p, e := twoProd(q, x)
	r := (d.Hi - p) - e + d.Lo
	q2 := r / x
	s, err := TwoSum(q, q2)
	return DD{Hi: s, Lo: err}
}

// Value rounds the double-double to the nearest float64.
func (d DD) Value() float64 { return d.Hi + d.Lo }

// AppendPrefixSums appends the running double-double sums of xs to
// dst, starting from zero: len(xs)+1 entries, the k-th the sum of
// xs[:k]. PrefixMean then answers any window's mean in O(1).
// Series.Seal and the dataset summarizer both build their prefix
// columns with it, so their window means agree bit for bit.
func AppendPrefixSums(dst []DD, xs []float64) []DD {
	dst = slices.Grow(dst, len(xs)+1)
	var acc DD
	dst = append(dst, acc)
	for _, x := range xs {
		acc.Add(x)
		dst = append(dst, acc)
	}
	return dst
}

// PrefixMean returns the mean of xs[lo:hi], lo < hi, from the prefix
// sums AppendPrefixSums built over xs (or over any prefix of xs
// reaching hi).
func PrefixMean(pre []DD, lo, hi int) float64 {
	return pre[hi].Sub(pre[lo]).Value() / float64(hi-lo)
}

// Moments are descriptive statistics recovered from power sums: the
// moment fields use exactly the same estimator conventions as the
// slice-based Variance, StdDev, Skewness and Kurtosis functions
// (unbiased n-1 variance, adjusted Fisher–Pearson skewness, excess
// kurtosis with bias correction, and the same small-n and zero-variance
// fallbacks to 0).
type Moments struct {
	Count    int
	Mean     float64
	Variance float64
	StdDev   float64
	Skewness float64
	Kurtosis float64
}

// MomentsFromPowerSums recovers Moments from the raw power sums
// Σx, Σx², Σx³, Σx⁴ over n samples, supplied as double-doubles (the
// telemetry layer maintains them as sealed prefix sums). The power
// terms must themselves be accumulated in double-double from exact
// squares (see Sq): AddDD(Sq(x)), AddDD(Sq(x).Scale(x)),
// AddDD(Sq(x).Mul(Sq(x))). The central moments are then assembled in
// double-double arithmetic, so the classic Σx²−n·mean² cancellation
// that plagues float64 raw-moment formulas stays harmless for counters
// with large baselines (~1e9 means over unit-scale structure).
func MomentsFromPowerSums(n int, s1, s2, s3, s4 DD) Moments {
	if n <= 0 {
		return Moments{}
	}
	fn := float64(n)
	mean := s1.Div(fn)
	m := Moments{Count: n, Mean: mean.Value()}
	if n < 2 {
		return m
	}
	// Central moments from raw power sums, all in double-double:
	//   m2 = S2/n − μ²
	//   m3 = S3/n − 3μ·S2/n + 2μ³
	//   m4 = S4/n − 4μ·S3/n + 6μ²·S2/n − 3μ⁴
	mu2 := mean.Mul(mean)
	r2 := s2.Div(fn)
	r3 := s3.Div(fn)
	r4 := s4.Div(fn)
	m2 := r2.Sub(mu2)
	// Rounding can push a zero-variance window a hair negative; clamp.
	m2v := m2.Value()
	if m2v < 0 {
		m2v = 0
	}
	m.Variance = m2v * fn / (fn - 1)
	m.StdDev = math.Sqrt(m.Variance)
	if m2v == 0 {
		return m
	}
	if n >= 3 {
		m3 := r3.Sub(mean.Mul(r2).Scale(3)).AddMul(mu2.Mul(mean), 2)
		g1 := m3.Value() / math.Pow(m2v, 1.5)
		m.Skewness = math.Sqrt(fn*(fn-1)) / (fn - 2) * g1
	}
	if n >= 4 {
		m4 := r4.Sub(mean.Mul(r3).Scale(4)).AddMul(mu2.Mul(r2), 6).AddMul(mu2.Mul(mu2), -3)
		g2 := m4.Value()/(m2v*m2v) - 3
		m.Kurtosis = ((fn - 1) / ((fn - 2) * (fn - 3))) * ((fn+1)*g2 + 6)
	}
	return m
}

// AddMul returns d + o*x, keeping the computation in double-double.
func (d DD) AddMul(o DD, x float64) DD {
	r := d
	r.AddDD(o.Scale(x))
	return r
}
