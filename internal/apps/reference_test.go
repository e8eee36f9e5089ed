package apps

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// Ideal is the per-sample reference for Level and Shape: the
// noise-free value of the metric with catalog index metricIndex on the
// given node at offset t from execution start, evaluated directly.
// TestShapeMatchesIdeal holds the tabulated form to it bit for bit.
func (e *Execution) Ideal(metricIndex, node int, t time.Duration) float64 {
	m := Metrics()[metricIndex]
	v := e.levels[metricIndex][node]
	if m.Kind == KindConstant {
		return v
	}
	// Iteration ripple: strong on rates, faint on gauges.
	amp := 0.002
	if m.Kind == KindRate {
		amp = 0.04
	}
	amp *= e.Spec.rippleGain
	period := e.Spec.ripplePeriod.Seconds()
	if period > 0 {
		v *= 1 + amp*math.Sin(2*math.Pi*t.Seconds()/period+e.phases[metricIndex])
	}
	// Staircase growth (adaptive mesh refinement) kicks in only after
	// the fingerprint window so Table 4 levels stay put.
	if e.growthAmp > 0 && m.Kind == KindGauge && t > 130*time.Second {
		steps := math.Floor((t.Seconds() - 130) / 40)
		v *= 1 + e.growthAmp*steps
	}
	return v
}

// TestShapeMatchesIdeal is the ideal-value half of the sampling
// kernel's differential test (the noise half is in
// internal/noise/kernel_test.go): for every application, input and
// catalog metric (gauges, rates and constants), on every node and for
// three sampling periods, Level·ripple·growth equals Ideal to the last
// bit at every sample. Every miniAMR execution runs past 130 s, so the
// growth steps are covered.
func TestShapeMatchesIdeal(t *testing.T) {
	const nodes = 4
	var ripple, growth []float64
	grew := false
	for _, period := range []time.Duration{time.Second, 500 * time.Millisecond, 3 * time.Second} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			for _, spec := range Catalog() {
				for _, in := range spec.Inputs {
					e, err := spec.Instantiate(in, nodes, rng)
					if err != nil {
						t.Fatal(err)
					}
					n := int(e.Duration()/period) + 1
					ripple, growth = make([]float64, n), make([]float64, n)
					for mi := range Metrics() {
						r, g := e.Shape(mi, period, ripple, growth)
						grew = grew || g != nil && n > 0 && time.Duration(n-1)*period > 170*time.Second
						for node := 0; node < nodes; node++ {
							for i := 0; i < n; i++ {
								v := e.Level(mi, node)
								if r != nil {
									v *= r[i]
								}
								if g != nil {
									v *= g[i]
								}
								want := e.Ideal(mi, node, time.Duration(i)*period)
								if math.Float64bits(v) != math.Float64bits(want) {
									t.Fatalf("%s %s %s node %d sample %d (period %v): tabulated %v, Ideal %v",
										spec.Name, in, Metrics()[mi].Name, node, i, period, v, want)
								}
							}
						}
					}
				}
			}
		}
	}
	if !grew {
		t.Fatal("no execution reached a growth step")
	}
}
