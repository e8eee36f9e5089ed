package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOnlineMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = 50 + rng.NormFloat64()*7
	}
	var o Online
	o.AddAll(xs)
	if o.Count() != len(xs) {
		t.Fatalf("Count = %d", o.Count())
	}
	if !almostEqual(o.Mean(), KahanMean(xs), 1e-9) {
		t.Errorf("Mean: online %v batch %v", o.Mean(), KahanMean(xs))
	}
	if !almostEqual(o.Variance(), Variance(xs), 1e-6) {
		t.Errorf("Variance: online %v batch %v", o.Variance(), Variance(xs))
	}
	if o.Min() != Min(xs) || o.Max() != Max(xs) {
		t.Error("Min/Max mismatch")
	}
}

func TestOnlineEmptyAndSingle(t *testing.T) {
	var o Online
	if o.Count() != 0 || o.Mean() != 0 || o.Variance() != 0 || o.StdDev() != 0 {
		t.Error("zero-value Online should report zeros")
	}
	o.Add(42)
	if o.Mean() != 42 || o.Variance() != 0 || o.Min() != 42 || o.Max() != 42 {
		t.Errorf("single observation: %+v", o)
	}
}

func TestOnlineReset(t *testing.T) {
	var o Online
	o.AddAll([]float64{1, 2, 3})
	o.Reset()
	if o.Count() != 0 || o.Mean() != 0 {
		t.Error("Reset did not clear state")
	}
}

// Property: merging two accumulators equals accumulating the
// concatenation.
func TestOnlineMergeEquivalence(t *testing.T) {
	f := func(seed int64, nA, nB uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := make([]float64, int(nA))
		b := make([]float64, int(nB))
		for i := range a {
			a[i] = rng.NormFloat64() * 100
		}
		for i := range b {
			b[i] = rng.NormFloat64() * 100
		}
		var oa, ob, all Online
		oa.AddAll(a)
		ob.AddAll(b)
		all.AddAll(append(append([]float64{}, a...), b...))
		oa.Merge(&ob)
		if oa.Count() != all.Count() {
			return false
		}
		if oa.Count() == 0 {
			return true
		}
		return almostEqual(oa.Mean(), all.Mean(), 1e-6) &&
			almostEqual(oa.Variance(), all.Variance(), 1e-5) &&
			oa.Min() == all.Min() && oa.Max() == all.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestOnlineMergeWithEmpty(t *testing.T) {
	var a, b Online
	a.AddAll([]float64{1, 2, 3})
	mean, variance := a.Mean(), a.Variance()
	a.Merge(&b) // merge empty into non-empty: no-op
	if a.Mean() != mean || a.Variance() != variance || a.Count() != 3 {
		t.Error("merging empty changed state")
	}
	b.Merge(&a) // merge non-empty into empty: copy
	if b.Mean() != mean || b.Count() != 3 {
		t.Error("merging into empty did not copy state")
	}
}

func TestOnlineNumericalStability(t *testing.T) {
	// Welford should handle a large offset without catastrophic
	// cancellation.
	var o Online
	for i := 0; i < 10000; i++ {
		o.Add(1e9 + float64(i%3)) // values 1e9, 1e9+1, 1e9+2
	}
	if math.Abs(o.Mean()-(1e9+1)) > 1e-3 {
		t.Errorf("Mean = %v", o.Mean())
	}
	// Population of {0,1,2} repeated: sample variance ≈ 2/3.
	if math.Abs(o.Variance()-2.0/3.0) > 1e-3 {
		t.Errorf("Variance = %v", o.Variance())
	}
}

// AddAll folds a batch of observations into the accumulator.
func (o *Online) AddAll(xs []float64) {
	for _, x := range xs {
		o.Add(x)
	}
}

// Variance reports the unbiased running sample variance, or 0 with fewer
// than two observations.
func (o *Online) Variance() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n-1)
}

// StdDev reports the unbiased running sample standard deviation.
func (o *Online) StdDev() float64 { return math.Sqrt(o.Variance()) }

// Min reports the smallest observation, or 0 before any observation.
func (o *Online) Min() float64 { return o.min }

// Max reports the largest observation, or 0 before any observation.
func (o *Online) Max() float64 { return o.max }

// Reset returns the accumulator to its zero state.
func (o *Online) Reset() { *o = Online{} }

// Merge combines another accumulator into o, as if every observation of
// other had been Added to o. Merging with an empty accumulator is a
// no-op. This is the parallel-reduction step used when node windows are
// summarized concurrently.
func (o *Online) Merge(other *Online) {
	if other.n == 0 {
		return
	}
	if o.n == 0 {
		*o = *other
		return
	}
	na, nb := float64(o.n), float64(other.n)
	d := other.mean - o.mean
	tot := na + nb
	o.mean += d * nb / tot
	o.m2 += other.m2 + d*d*na*nb/tot
	o.n += other.n
	if other.min < o.min {
		o.min = other.min
	}
	if other.max > o.max {
		o.max = other.max
	}
}
