package stats

// Online accumulates streaming moments using Welford's algorithm,
// allowing the streaming recognizer to maintain window means without
// buffering every sample. The zero value is ready to use.
type Online struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (o *Online) Add(x float64) {
	o.n++
	if o.n == 1 {
		o.mean = x
		o.m2 = 0
		o.min = x
		o.max = x
		return
	}
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
	if x < o.min {
		o.min = x
	}
	if x > o.max {
		o.max = x
	}
}

// Count reports the number of observations seen.
func (o *Online) Count() int { return o.n }

// Mean reports the running mean, or 0 before any observation.
func (o *Online) Mean() float64 { return o.mean }
