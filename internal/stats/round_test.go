package stats

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"
)

// TestRoundingDepthTable reproduces Table 1 of the paper cell by cell.
func TestRoundingDepthTable(t *testing.T) {
	cases := []struct {
		x     float64
		depth int
		want  float64
	}{
		{1358.0, 4, 1358.0},
		{1358.0, 3, 1360.0},
		{1358.0, 2, 1400.0},
		{1358.0, 1, 1000.0},
		{5.28, 3, 5.28},
		{5.28, 2, 5.3},
		{5.28, 1, 5.0},
		{0.038, 2, 0.038},
		{0.038, 1, 0.04},
	}
	for _, c := range cases {
		got := RoundDepth(c.x, c.depth)
		if got != c.want {
			t.Errorf("RoundDepth(%v, %d) = %v, want %v", c.x, c.depth, got, c.want)
		}
	}
}

func TestRoundDepthDeeperThanDigitsIsIdentity(t *testing.T) {
	// The "-" cells of Table 1: depth ≥ #significant digits leaves the
	// value unchanged.
	for _, x := range []float64{1358.0, 5.28, 0.038, 7, 6000, 123456} {
		d := SignificantDigits(x)
		for depth := d; depth <= d+5 && depth <= MaxRoundDepth; depth++ {
			if got := RoundDepth(x, depth); got != x {
				t.Errorf("RoundDepth(%v, %d) = %v, want identity", x, depth, got)
			}
		}
	}
}

func TestRoundDepthSpecialValues(t *testing.T) {
	if got := RoundDepth(0, 2); got != 0 {
		t.Errorf("RoundDepth(0,2) = %v, want 0", got)
	}
	if got := RoundDepth(math.Inf(1), 2); !math.IsInf(got, 1) {
		t.Errorf("RoundDepth(+Inf,2) = %v, want +Inf", got)
	}
	if got := RoundDepth(math.Inf(-1), 2); !math.IsInf(got, -1) {
		t.Errorf("RoundDepth(-Inf,2) = %v, want -Inf", got)
	}
	if got := RoundDepth(math.NaN(), 2); !math.IsNaN(got) {
		t.Errorf("RoundDepth(NaN,2) = %v, want NaN", got)
	}
}

func TestRoundDepthNegative(t *testing.T) {
	cases := []struct {
		x     float64
		depth int
		want  float64
	}{
		{-1358.0, 2, -1400.0},
		{-1358.0, 1, -1000.0},
		{-5.28, 2, -5.3},
		{-0.038, 1, -0.04},
	}
	for _, c := range cases {
		if got := RoundDepth(c.x, c.depth); got != c.want {
			t.Errorf("RoundDepth(%v, %d) = %v, want %v", c.x, c.depth, got, c.want)
		}
	}
}

func TestRoundDepthClamping(t *testing.T) {
	if got, want := RoundDepth(1358, 0), RoundDepth(1358, 1); got != want {
		t.Errorf("depth 0 should clamp to 1: got %v want %v", got, want)
	}
	if got, want := RoundDepth(1358, -3), RoundDepth(1358, 1); got != want {
		t.Errorf("depth -3 should clamp to 1: got %v want %v", got, want)
	}
	if got := RoundDepth(1358, 99); got != 1358 {
		t.Errorf("huge depth should be identity: got %v", got)
	}
}

// TestRoundDepthIdempotent checks the property that makes rounded means
// usable as dictionary keys: rounding an already-rounded value is a
// no-op.
func TestRoundDepthIdempotent(t *testing.T) {
	f := func(x float64, d uint8) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		depth := int(d%6) + 1
		once := RoundDepth(x, depth)
		twice := RoundDepth(once, depth)
		return once == twice || (math.IsNaN(once) && math.IsNaN(twice))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestRoundDepthMonotone checks order preservation: x ≤ y implies
// round(x) ≤ round(y) at the same depth.
func TestRoundDepthMonotone(t *testing.T) {
	f := func(a, b float64, d uint8) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		depth := int(d%6) + 1
		x, y := a, b
		if x > y {
			x, y = y, x
		}
		return RoundDepth(x, depth) <= RoundDepth(y, depth)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestRoundDepthRelativeError checks that the relative rounding error is
// bounded by half a unit in the last kept significant digit.
func TestRoundDepthRelativeError(t *testing.T) {
	f := func(x float64, d uint8) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || x == 0 || math.Abs(x) > 1e300 || math.Abs(x) < 1e-300 {
			return true
		}
		depth := int(d%6) + 1
		r := RoundDepth(x, depth)
		// Half-step bound, with a small epsilon for the decimal
		// print/parse round trip.
		bound := RoundingStep(x, depth)/2 + math.Abs(x)*1e-12
		return math.Abs(r-x) <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestRoundDepthSignPreserved checks rounding never flips the sign.
func TestRoundDepthSignPreserved(t *testing.T) {
	f := func(x float64, d uint8) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || x == 0 {
			return true
		}
		depth := int(d%6) + 1
		r := RoundDepth(x, depth)
		return (x > 0) == (r > 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRoundHalfUpDepth(t *testing.T) {
	cases := []struct {
		x     float64
		depth int
		want  float64
	}{
		{1358.0, 3, 1360.0},
		{1350.0, 2, 1400.0},   // half-up breaks ties upward
		{-1350.0, 2, -1400.0}, // ...away from zero for negatives
		{5.28, 2, 5.3},
		{0.038, 1, 0.04},
	}
	for _, c := range cases {
		if got := RoundHalfUpDepth(c.x, c.depth); got != c.want {
			t.Errorf("RoundHalfUpDepth(%v, %d) = %v, want %v", c.x, c.depth, got, c.want)
		}
	}
}

func TestSignificantDigits(t *testing.T) {
	cases := []struct {
		x    float64
		want int
	}{
		{1358.0, 4},
		{5.28, 3},
		{0.038, 2},
		{6000, 1},
		{6100, 2},
		{0, 0},
		{1, 1},
		{-270.5, 4},
		{math.NaN(), 0},
		{math.Inf(1), 0},
	}
	for _, c := range cases {
		if got := SignificantDigits(c.x); got != c.want {
			t.Errorf("SignificantDigits(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestDecimalMagnitude(t *testing.T) {
	cases := []struct {
		x    float64
		want int
	}{
		{1358.0, 3},
		{5.28, 0},
		{0.038, -2},
		{1000, 3},
		{999.999, 2},
		{-42, 1},
		{0.1, -1},
	}
	for _, c := range cases {
		if got := DecimalMagnitude(c.x); got != c.want {
			t.Errorf("DecimalMagnitude(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestRoundingStep(t *testing.T) {
	cases := []struct {
		x     float64
		depth int
		want  float64
	}{
		{1358.0, 2, 100},
		{1358.0, 4, 1},
		{5.28, 2, 0.1},
		{0.038, 1, 0.01},
	}
	for _, c := range cases {
		got := RoundingStep(c.x, c.depth)
		if math.Abs(got-c.want) > 1e-12*c.want {
			t.Errorf("RoundingStep(%v, %d) = %v, want %v", c.x, c.depth, got, c.want)
		}
	}
	if got := RoundingStep(0, 3); got != 0 {
		t.Errorf("RoundingStep(0,3) = %v, want 0", got)
	}
}

// TestFormatKeyRoundTrip checks that the string form of a key is a
// faithful stand-in for the float form.
func TestFormatKeyRoundTrip(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) {
			return true
		}
		v, err := ParseKey(FormatKey(x))
		return err == nil && v == x
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestRoundedKeysCollide checks the pruning behaviour fingerprints rely
// on: two nearby measurements must map to the same key once rounded.
func TestRoundedKeysCollide(t *testing.T) {
	a := RoundDepth(6012.7, 2)
	b := RoundDepth(5988.3, 2)
	if a != b {
		t.Fatalf("6012.7 and 5988.3 should collide at depth 2: %v vs %v", a, b)
	}
	if FormatKey(a) != FormatKey(b) {
		t.Fatalf("string keys should also collide: %q vs %q", FormatKey(a), FormatKey(b))
	}
	// ...and separate again at a finer depth.
	if RoundDepth(6012.7, 3) == RoundDepth(5988.3, 3) {
		t.Fatal("6012.7 and 5988.3 should separate at depth 3")
	}
}

// RoundHalfUpDepth is a variant of RoundDepth that breaks ties away from
// zero (the rounding school children learn) instead of IEEE
// round-half-to-even. The paper's Table 1 is agnostic between the two
// (none of its examples are ties); this variant exists for users who need
// to match half-up systems.
func RoundHalfUpDepth(x float64, depth int) float64 {
	if x == 0 || math.IsNaN(x) || math.IsInf(x, 0) {
		return x
	}
	if depth < 1 {
		depth = 1
	}
	if depth > MaxRoundDepth {
		depth = MaxRoundDepth
	}
	mag := int(math.Floor(math.Log10(math.Abs(x))))
	// Scale so the target digit sits in the unit position.
	scale := math.Pow(10, float64(depth-1-mag))
	scaled := x * scale
	r := math.Floor(scaled + 0.5)
	if x < 0 {
		r = math.Ceil(scaled - 0.5)
	}
	// Re-normalize through the decimal printer for bit stability.
	return RoundDepth(r/scale, depth)
}

// DecimalMagnitude returns the exponent of the leading decimal digit of
// x, i.e. floor(log10(|x|)), computed through the decimal printer so that
// values such as 1000 (whose log10 can land just below an integer in
// floating point) are classified correctly. Zero/NaN/Inf return 0.
func DecimalMagnitude(x float64) int {
	if x == 0 || math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	s := strconv.FormatFloat(math.Abs(x), 'e', -1, 64)
	for i := 0; i < len(s); i++ {
		if s[i] == 'e' || s[i] == 'E' {
			e, err := strconv.Atoi(s[i+1:])
			if err != nil {
				return int(math.Floor(math.Log10(math.Abs(x))))
			}
			return e
		}
	}
	return int(math.Floor(math.Log10(math.Abs(x))))
}

// RoundingStep returns the absolute difference between adjacent
// representable rounded values around x at the given depth — the
// quantization step of the fingerprint space. For example at depth 2,
// values near 1358 quantize in steps of 10^(3-1) = 100. A larger step
// means heavier pruning.
func RoundingStep(x float64, depth int) float64 {
	if x == 0 || math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	if depth < 1 {
		depth = 1
	}
	mag := DecimalMagnitude(x)
	return math.Pow(10, float64(mag-depth+1))
}
