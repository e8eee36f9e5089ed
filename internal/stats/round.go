// Package stats provides the descriptive statistics and rounding
// primitives used throughout the EFD reproduction: significant-figure
// rounding ("rounding depth", Table 1 of the paper), batch and online
// summary statistics, and percentile estimation.
//
// All functions are pure and safe for concurrent use.
package stats

import (
	"math"
	"strconv"
	"unsafe"
)

// MaxRoundDepth is the largest rounding depth accepted by RoundDepth.
// Beyond ~15 significant decimal digits a float64 cannot represent the
// requested precision anyway, so deeper depths degenerate to identity.
const MaxRoundDepth = 15

// RoundDepth rounds x to depth significant figures, counting from the
// left-most non-zero digit, reproducing Table 1 of the paper:
//
//	RoundDepth(1358.0, 3) == 1360.0
//	RoundDepth(1358.0, 2) == 1400.0
//	RoundDepth(1358.0, 1) == 1000.0
//	RoundDepth(5.28, 2)   == 5.3
//	RoundDepth(0.038, 1)  == 0.04
//
// A depth greater than or equal to the number of significant digits in x
// leaves the value unchanged (the "-" cells of Table 1). Depth values
// below 1 are clamped to 1 and values above MaxRoundDepth are clamped to
// MaxRoundDepth. Zero, NaN and infinities are returned unchanged.
//
// The implementation goes through the shortest decimal representation of
// x (strconv with precision -1) so that two means which print identically
// always round to bit-identical float64 values. That bit-stability is what
// makes rounded means usable as exact dictionary keys.
func RoundDepth(x float64, depth int) float64 {
	if x == 0 || math.IsNaN(x) || math.IsInf(x, 0) {
		return x
	}
	if depth < 1 {
		depth = 1
	}
	if depth > MaxRoundDepth {
		depth = MaxRoundDepth
	}
	// Format with exactly `depth` significant digits; strconv performs
	// correct round-half-to-even decimal rounding, then parse back. The
	// round trip runs through a stack buffer so the recognition hot
	// path stays allocation-free.
	var buf [32]byte
	s := strconv.AppendFloat(buf[:0], x, 'e', depth-1, 64)
	v, err := strconv.ParseFloat(bytesAsString(s), 64)
	if err != nil {
		// Cannot happen for output of AppendFloat; keep the original
		// value rather than panic in a measurement path.
		return x
	}
	return v
}

// bytesAsString views b as a string without copying. The bytes must not
// be mutated while the string is in use; every caller here only passes
// the view to strconv.ParseFloat, which neither retains nor mutates it.
func bytesAsString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// SignificantDigits reports the number of significant decimal digits in
// the shortest decimal representation of x: the count of digits from the
// first non-zero digit to the last non-zero digit. Zero has zero
// significant digits by convention; NaN/Inf report zero.
func SignificantDigits(x float64) int {
	if x == 0 || math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	s := strconv.FormatFloat(math.Abs(x), 'e', -1, 64)
	// Form: d[.ddd]e±xx — count mantissa digits, trimming trailing zeros
	// (FormatFloat with -1 already emits the shortest form, so no
	// trailing zeros appear, but be defensive).
	n := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == 'e' || c == 'E' {
			break
		}
		if c >= '0' && c <= '9' {
			n++
		}
	}
	return n
}

// FormatKey renders a rounded measurement as its canonical shortest
// decimal string. Two float64 values compare equal under == exactly when
// FormatKey returns the same string for both, so the string form can be
// used interchangeably with the float form in dictionary keys and in
// serialized dictionaries.
func FormatKey(x float64) string {
	return strconv.FormatFloat(x, 'g', -1, 64)
}

// ParseKey parses a string produced by FormatKey back into a float64.
func ParseKey(s string) (float64, error) {
	return strconv.ParseFloat(s, 64)
}

// AppendKey appends FormatKey(x) to dst and returns the extended slice.
// It is the allocation-free form of FormatKey for hot paths that build
// dictionary keys into reused buffers.
func AppendKey(dst []byte, x float64) []byte {
	return strconv.AppendFloat(dst, x, 'g', -1, 64)
}

// AppendRoundedKey appends FormatKey(RoundDepth(x, depth)) to dst — the
// canonical dictionary-key bytes of a raw mean at the given rounding
// depth — without any intermediate string allocation. The produced
// bytes are byte-identical to the string path, so keys built this way
// match keys built via NewFingerprint exactly.
func AppendRoundedKey(dst []byte, x float64, depth int) []byte {
	return AppendKey(dst, RoundDepth(x, depth))
}
