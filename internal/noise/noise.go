// Package noise provides the perturbations that make the synthetic
// telemetry "noisy" in the sense the paper cares about: a fingerprint
// must survive Gaussian measurement jitter, occasional spikes, slow
// drift, a noisy neighbour, and the turbulent initialization phase
// that motivates the paper's [60s,120s) window choice.
//
// One kernel applies them all. Tables holds the factors that depend
// only on the sample index (the start-up transient's decay and the
// drift), built once per execution and shared by all of its series;
// Perturb then turns one series of ideal values into observed values
// in place, drawing every random number from a caller-supplied
// *rand.Rand in a fixed order, so identical seeds reproduce identical
// telemetry.
package noise

import (
	"math"
	"math/rand"
	"time"
)

// Profile describes the noise environment of one simulated cluster. The
// zero value is a quiet system.
type Profile struct {
	// Jitter is per-sample measurement noise, relative to the value.
	Jitter float64
	// SpikeProb and SpikeMagnitude configure rare excursions.
	SpikeProb      float64
	SpikeMagnitude float64
	// DriftPerMinute is slow relative growth per minute.
	DriftPerMinute float64
	// InitAmplitude and InitSettle shape the start-up transient.
	InitAmplitude float64
	InitSettle    time.Duration
	// InterferenceProb and InterferenceLevel configure whole-execution
	// neighbour interference.
	InterferenceProb  float64
	InterferenceLevel float64
}

// DefaultProfile mirrors a production cluster busy enough to be
// interesting: small relative jitter, occasional spikes, a strong
// initialization transient that has died off by the paper's 60-second
// window start, and a noisy neighbour in roughly one series out of
// fourteen. The magnitudes are calibrated so that fingerprint keys
// wobble across a handful of adjacent rounded values (the multiplicity
// visible in Table 4) without erasing cross-application separation.
func DefaultProfile() Profile {
	return Profile{
		Jitter:            0.002,
		SpikeProb:         0.002,
		SpikeMagnitude:    0.3,
		DriftPerMinute:    0.0005,
		InitAmplitude:     0.8,
		InitSettle:        12 * time.Second,
		InterferenceProb:  0.07,
		InterferenceLevel: 0.005,
	}
}

// QuietProfile returns a nearly noise-free environment for calibration.
//
//efd:keep calibration fixture: the noise, cluster and dataset tests check model levels under it
func QuietProfile() Profile {
	return Profile{Jitter: 0.0005, InitAmplitude: 0.3, InitSettle: 10 * time.Second}
}

// Tables holds the factors of one execution's noise environment that
// depend only on the sample index: the start-up transient's decay
// exp(-t/InitSettle) and height 1+InitAmplitude·decay, and the drift
// 1+DriftPerMinute·minutes. Every application series of the execution
// shares them. The zero value is empty; Tabulate fills it, reusing
// its buffers, and a Tables must not be used concurrently.
type Tables struct {
	p         Profile
	decay     []float64
	transient []float64
	drift     []float64
}

// Tabulate fills t for n samples taken every period from offset 0,
// sample i at offset i·period, under the profile p.
func (t *Tables) Tabulate(p Profile, period time.Duration, n int) {
	t.p = p
	t.decay, t.transient, t.drift = t.decay[:0], t.transient[:0], t.drift[:0]
	for i := 0; i < n; i++ {
		off := time.Duration(i) * period
		if p.InitSettle > 0 {
			decay := math.Exp(-off.Seconds() / p.InitSettle.Seconds())
			t.decay = append(t.decay, decay)
			t.transient = append(t.transient, 1+p.InitAmplitude*decay)
		}
		if p.DriftPerMinute != 0 {
			t.drift = append(t.drift, 1+p.DriftPerMinute*off.Minutes())
		}
	}
}

// Perturb turns one application series, ideal values in, observed
// values out, in place. vals must hold the n samples t was tabulated
// for; jitter replaces the profile's Jitter as the series' relative
// measurement noise (the profile's plus the metric's own). Each sample
// passes, in order, through the start-up transient and its extra
// jitter, the drift, the neighbour interference (decided by one draw
// at the first sample), a spike and the Gaussian jitter, and is
// clamped at zero: a monitored counter never reads negative. The rng
// draws follow the same order.
//
//efd:hotpath
func (t *Tables) Perturb(rng *rand.Rand, jitter float64, vals []float64) {
	p := t.p
	p.Jitter = jitter
	perturb(rng, p, t, vals)
}

// PerturbProperty is Perturb for a node property such as MemTotal,
// which is immune to application noise: it sees only the Gaussian
// jitter. The interference decision is still drawn, at probability
// zero, so the random stream stays the one the dataset goldens pin.
//
//efd:hotpath
func PerturbProperty(rng *rand.Rand, jitter float64, vals []float64) {
	perturb(rng, Profile{Jitter: jitter}, nil, vals)
}

// perturb is the kernel behind Perturb and PerturbProperty. It reads
// t's transient tables only when p has a start-up transient and its
// drift table only when p drifts; each factor is evaluated exactly as
// the per-sample model chain of the tests evaluates it, so the output
// is bit-identical to that reference.
func perturb(rng *rand.Rand, p Profile, t *Tables, vals []float64) {
	transient := p.InitSettle > 0
	extra := p.Jitter * 4
	drift := p.DriftPerMinute != 0
	interference := 1 + p.InterferenceLevel
	active := false
	for i, ideal := range vals {
		v := ideal
		if transient {
			v = ideal * t.transient[i]
			if extra > 0 {
				v += rng.NormFloat64() * math.Abs(ideal) * extra * t.decay[i]
			}
		}
		if drift {
			v *= t.drift[i]
		}
		if i == 0 {
			active = rng.Float64() < p.InterferenceProb
		}
		if active {
			v *= interference
		}
		if p.SpikeProb > 0 && rng.Float64() < p.SpikeProb {
			v += math.Abs(v) * p.SpikeMagnitude
		}
		if sigma := math.Abs(v) * p.Jitter; sigma > 0 {
			v += rng.NormFloat64() * sigma
		}
		if v < 0 {
			v = 0
		}
		vals[i] = v
	}
}
