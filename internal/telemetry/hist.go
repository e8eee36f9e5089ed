package telemetry

// DefaultHistBins is the bin count SketchValues uses when given a
// non-positive one, and the resolution the tsdb stores in segment
// footers.
const DefaultHistBins = 32

// HistSketch is a fixed-width-bin value histogram: Counts[b] samples
// fell into [Min + b·w, Min + (b+1)·w) for w = (Max−Min)/len(Counts),
// with the top bin closed. It is the summary the tsdb persists per
// series in segment footers.
type HistSketch struct {
	Min    float64  `json:"min"`
	Max    float64  `json:"max"`
	Counts []uint32 `json:"counts"`
}

// SketchValues bins vals into a fresh sketch. Values are assumed
// finite (the ingest layers reject NaN/Inf before telemetry sees
// them). A non-positive bins uses DefaultHistBins.
func SketchValues(vals []float64, bins int) HistSketch {
	if bins <= 0 {
		bins = DefaultHistBins
	}
	sk := HistSketch{Counts: make([]uint32, bins)}
	if len(vals) == 0 {
		return sk
	}
	mn, mx := vals[0], vals[0]
	for _, x := range vals[1:] {
		if x < mn {
			mn = x
		}
		if x > mx {
			mx = x
		}
	}
	sk.Min, sk.Max = mn, mx
	for _, x := range vals {
		sk.Counts[binOf(x, mn, mx, bins)]++
	}
	return sk
}

// binOf maps a value to its bin index, clamping to the edge bins. A
// degenerate range (max ≤ min, e.g. a constant series) maps everything
// to bin 0.
func binOf(x, min, max float64, bins int) int {
	if !(max > min) {
		return 0
	}
	b := int(float64(bins) * (x - min) / (max - min))
	if b < 0 {
		b = 0
	}
	if b >= bins {
		b = bins - 1
	}
	return b
}
