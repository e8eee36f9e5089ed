package telemetry

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func sec(n int) time.Duration { return time.Duration(n) * time.Second }

func mkSeries(t *testing.T, metric string, node int, values []float64) *Series {
	t.Helper()
	s := NewSeries(metric, node, len(values))
	for i, v := range values {
		s.Append(sec(i), v)
	}
	return s
}

func TestSeriesBasics(t *testing.T) {
	s := mkSeries(t, "m", 2, []float64{1, 2, 3})
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
	if s.Duration() != sec(2) {
		t.Errorf("Duration = %v", s.Duration())
	}
	vals := s.Values()
	if len(vals) != 3 || vals[0] != 1 || vals[2] != 3 {
		t.Errorf("Values = %v", vals)
	}
	empty := NewSeries("m", 0, 0)
	if empty.Duration() != 0 || empty.Len() != 0 {
		t.Error("empty series should report zero length and duration")
	}
}

// TestAppendRunMatchesAppend: a columnar run leaves the series in
// exactly the state its samples appended one by one would, and both
// match the model of the format — no offset column while every sample
// i sits at i*DefaultPeriod, unsorted once any offset falls below its
// predecessor — across grid continuations, gaps, off-grid jitter and
// out-of-order runs.
func TestAppendRunMatchesAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		bulk, single := NewSeries("m", 0, 0), NewSeries("m", 0, 0)
		var all []Sample
		for r := rng.Intn(5); r >= 0; r-- {
			n := rng.Intn(6)
			offs, vals := make([]time.Duration, n), make([]float64, n)
			next := bulk.Len()
			switch rng.Intn(3) {
			case 1: // a gap
				next += rng.Intn(3)
			case 2: // out of order
				next -= rng.Intn(next + 1)
			}
			for k := range offs {
				offs[k] = time.Duration(next+k) * DefaultPeriod
				if rng.Intn(8) == 0 {
					offs[k] += time.Millisecond
				}
				vals[k] = rng.Float64()
				all = append(all, Sample{offs[k], vals[k]})
			}
			bulk.AppendRun(offs, vals)
			for k := range offs {
				single.Append(offs[k], vals[k])
			}
		}
		grid, sorted := true, true
		for i, smp := range all {
			grid = grid && smp.Offset == time.Duration(i)*DefaultPeriod
			sorted = sorted && (i == 0 || smp.Offset >= all[i-1].Offset)
		}
		for _, s := range []*Series{bulk, single} {
			if (s.OffsetsView() == nil) != grid || s.Sorted() != sorted || s.Len() != len(all) {
				t.Fatalf("trial %d: grid %v, sorted %v, len %d; model says %v, %v, %d",
					trial, s.OffsetsView() == nil, s.Sorted(), s.Len(), grid, sorted, len(all))
			}
			for i, smp := range all {
				if s.At(i) != smp {
					t.Fatalf("trial %d sample %d: %v, want %v", trial, i, s.At(i), smp)
				}
			}
		}
	}
}

// TestAppendRunGridAndOffsets pins the column views: grid runs store no
// offset column, the first off-grid run materializes it, out-of-order
// runs flag the series until Sort, and a Sort that lands on the grid
// drops the column again. AppendOffsets always yields every offset.
func TestAppendRunGridAndOffsets(t *testing.T) {
	s := NewSeries("m", 0, 0)
	s.AppendRun([]time.Duration{sec(2), sec(3)}, []float64{3, 4})
	if s.OffsetsView() == nil || !s.Sorted() {
		t.Fatalf("off-grid first run: offsets %v, sorted %v", s.OffsetsView(), s.Sorted())
	}
	s.AppendRun([]time.Duration{sec(0), sec(1)}, []float64{1, 2})
	if s.Sorted() {
		t.Fatal("out-of-order run left the series sorted")
	}
	want := []time.Duration{sec(2), sec(3), sec(0), sec(1)}
	if got := s.AppendOffsets([]time.Duration{-1}); len(got) != 5 || got[0] != -1 || fmt.Sprint(got[1:]) != fmt.Sprint(want) {
		t.Fatalf("AppendOffsets = %v, want [-1s %v]", got, want)
	}
	s.Sort()
	if s.OffsetsView() != nil || !s.Sorted() || fmt.Sprint(s.ValuesView()) != "[1 2 3 4]" {
		t.Fatalf("after Sort: offsets %v, sorted %v, values %v", s.OffsetsView(), s.Sorted(), s.ValuesView())
	}
	if got := s.AppendOffsets(nil); fmt.Sprint(got) != fmt.Sprint([]time.Duration{0, sec(1), sec(2), sec(3)}) {
		t.Fatalf("grid AppendOffsets = %v", got)
	}
	s.AppendRun([]time.Duration{sec(4), sec(5)}, []float64{5, 6})
	if s.OffsetsView() != nil || s.Len() != 6 {
		t.Fatalf("grid continuation materialized offsets: %v", s.OffsetsView())
	}
	defer func() {
		if recover() == nil {
			t.Error("AppendRun with ragged columns did not panic")
		}
	}()
	s.AppendRun([]time.Duration{sec(6)}, nil)
}

func TestSeriesSort(t *testing.T) {
	s := NewSeries("m", 0, 3)
	s.Append(sec(2), 30)
	s.Append(sec(0), 10)
	s.Append(sec(1), 20)
	if s.Sorted() {
		t.Error("out-of-order appends should clear Sorted")
	}
	if err := s.Validate(); err == nil {
		t.Fatal("out-of-order series should fail validation")
	}
	s.Sort()
	if !s.Sorted() {
		t.Error("Sort should restore Sorted")
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("sorted series should validate: %v", err)
	}
	if s.ValueAt(0) != 10 || s.ValueAt(2) != 30 {
		t.Errorf("sort order wrong: %v", s.Values())
	}
	// The sorted offsets land back on the 1 Hz grid, so the offset
	// column is dropped and accessors keep answering.
	if s.OffsetAt(1) != sec(1) || s.At(2) != (Sample{Offset: sec(2), Value: 30}) {
		t.Errorf("accessors after sort: OffsetAt(1)=%v At(2)=%+v", s.OffsetAt(1), s.At(2))
	}
}

// TestUnsortedSeriesWindowing covers the Append/Slice contract: the
// binary search used by Slice and WindowMean must not silently return
// wrong windows when samples arrived out of order — windowing fails
// with ErrUnsortedSeries until an explicit Sort restores order.
func TestUnsortedSeriesWindowing(t *testing.T) {
	ordered := NewSeries("m", 0, 0)
	shuffled := NewSeries("m", 0, 0)
	for i := 0; i < 180; i++ {
		ordered.Append(sec(i), float64(i))
	}
	// Deliver the same samples in a scrambled order.
	for _, i := range []int{1, 0} {
		for j := i; j < 180; j += 2 {
			shuffled.Append(sec(j), float64(j))
		}
	}
	if shuffled.Sorted() {
		t.Fatal("scrambled appends should flag the series unsorted")
	}
	w := Window{Start: sec(60), End: sec(120)}
	if _, err := shuffled.WindowMean(w); !errors.Is(err, ErrUnsortedSeries) {
		t.Fatalf("unsorted WindowMean err = %v, want ErrUnsortedSeries", err)
	}
	if _, err := shuffled.Slice(w); !errors.Is(err, ErrUnsortedSeries) {
		t.Fatalf("unsorted Slice err = %v, want ErrUnsortedSeries", err)
	}
	shuffled.Sort()
	want, err := ordered.WindowMean(w)
	if err != nil {
		t.Fatal(err)
	}
	got, err := shuffled.WindowMean(w)
	if err != nil {
		t.Fatalf("sorted series WindowMean: %v", err)
	}
	if got != want {
		t.Errorf("WindowMean after Sort = %v, want %v", got, want)
	}
	vals, err := shuffled.Slice(w)
	if err != nil || len(vals) != 60 || vals[0] != 60 {
		t.Errorf("Slice after Sort = (%d vals, %v)", len(vals), err)
	}
}

func TestWindowBasics(t *testing.T) {
	w := Window{Start: sec(60), End: sec(120)}
	if w.String() != "[60:120]" {
		t.Errorf("String = %q", w.String())
	}
	if !w.Valid() || w.Duration() != sec(60) {
		t.Error("window validity/duration wrong")
	}
	if !w.Contains(sec(60)) || w.Contains(sec(120)) || !w.Contains(sec(119)) {
		t.Error("half-open containment wrong")
	}
	if (Window{Start: sec(5), End: sec(5)}).Valid() {
		t.Error("empty window should be invalid")
	}
	if (Window{Start: -sec(1), End: sec(5)}).Valid() {
		t.Error("negative start should be invalid")
	}
}

func TestParseWindow(t *testing.T) {
	w, err := ParseWindow("[60:120]")
	if err != nil || w != PaperWindow {
		t.Fatalf("ParseWindow: %v %v", w, err)
	}
	for _, bad := range []string{"60:120", "[x:y]", "[120:60]", "[5:5]", ""} {
		if _, err := ParseWindow(bad); err == nil {
			t.Errorf("ParseWindow(%q) should fail", bad)
		}
	}
}

func TestParseWindowRoundTrip(t *testing.T) {
	f := func(a, b uint16) bool {
		lo, hi := int(a), int(b)
		if lo >= hi {
			lo, hi = hi, lo+1
		}
		w := Window{Start: sec(lo), End: sec(hi)}
		got, err := ParseWindow(w.String())
		return err == nil && got == w
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSliceWindow(t *testing.T) {
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = float64(i)
	}
	s := mkSeries(t, "m", 0, vals)
	got, err := s.Slice(Window{Start: sec(60), End: sec(120)})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 60 || got[0] != 60 || got[59] != 119 {
		t.Errorf("Slice = len %d, first %v, last %v", len(got), got[0], got[len(got)-1])
	}
}

func TestSliceShortSeries(t *testing.T) {
	s := mkSeries(t, "m", 0, []float64{1, 2, 3}) // covers [0,2]
	_, err := s.Slice(Window{Start: sec(60), End: sec(120)})
	if !errors.Is(err, ErrShortSeries) {
		t.Fatalf("want ErrShortSeries, got %v", err)
	}
	if _, err := s.Slice(Window{Start: sec(5), End: sec(1)}); err == nil {
		t.Fatal("invalid window should error")
	}
}

func TestWindowMeanMatchesManual(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, 150)
	for i := range vals {
		vals[i] = 100 + rng.NormFloat64()
	}
	s := mkSeries(t, "m", 0, vals)
	w := Window{Start: sec(60), End: sec(120)}
	got, err := s.WindowMean(w)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for i := 60; i < 120; i++ {
		want += vals[i]
	}
	want /= 60
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("WindowMean = %v, want %v", got, want)
	}
}

func TestWindowMeanPartialCoverage(t *testing.T) {
	// Series ends at 90s: the [60:120] window is partially covered;
	// mean should still be computed over the available samples.
	vals := make([]float64, 91)
	for i := range vals {
		vals[i] = 7
	}
	s := mkSeries(t, "m", 0, vals)
	got, err := s.WindowMean(PaperWindow)
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Errorf("WindowMean = %v", got)
	}
}

func TestResample(t *testing.T) {
	s := NewSeries("m", 0, 4)
	s.Append(0, 1)
	s.Append(sec(2), 2) // missing tick at 1s
	s.Append(sec(3), 3)
	r, err := s.Resample(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1, 2, 3} // LOCF fills the gap
	got := r.Values()
	if len(got) != len(want) {
		t.Fatalf("Resample length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Resample[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if _, err := s.Resample(0); err == nil {
		t.Error("non-positive period should error")
	}
	empty := NewSeries("m", 0, 0)
	r2, err := empty.Resample(time.Second)
	if err != nil || r2.Len() != 0 {
		t.Error("resampling empty series should yield empty series")
	}
}

func TestValidateCatchesNonFinite(t *testing.T) {
	s := NewSeries("m", 0, 2)
	s.Append(0, 1)
	s.Append(sec(1), math.NaN())
	if err := s.Validate(); err == nil {
		t.Error("NaN should fail validation")
	}
	s2 := NewSeries("m", 0, 1)
	s2.Append(-sec(1), 1)
	if err := s2.Validate(); err == nil {
		t.Error("negative offset should fail validation")
	}
}

func TestNodeSet(t *testing.T) {
	ns := NewNodeSet()
	ns.Put(mkSeries(t, "a", 0, []float64{1}))
	ns.Put(mkSeries(t, "b", 0, []float64{1, 2}))
	ns.Put(mkSeries(t, "a", 1, []float64{1}))
	ns.Put(mkSeries(t, "b", 1, []float64{1}))
	if got := ns.Nodes(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("Nodes = %v", got)
	}
	if got := ns.Metrics(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Metrics = %v", got)
	}
	if ns.NumSeries() != 4 {
		t.Errorf("NumSeries = %d", ns.NumSeries())
	}
	if ns.Duration() != sec(1) {
		t.Errorf("Duration = %v", ns.Duration())
	}
	if ns.Get(0, "a") == nil || ns.Get(2, "a") != nil || ns.Get(0, "c") != nil {
		t.Error("Get lookup wrong")
	}
	if err := ns.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestNodeSetValidateMismatchedMetrics(t *testing.T) {
	ns := NewNodeSet()
	ns.Put(mkSeries(t, "a", 0, []float64{1}))
	ns.Put(mkSeries(t, "b", 1, []float64{1}))
	if err := ns.Validate(); err == nil {
		t.Error("nodes with different metric sets should fail validation")
	}
}

func TestNodeSetPutReplaces(t *testing.T) {
	ns := NewNodeSet()
	ns.Put(mkSeries(t, "a", 0, []float64{1}))
	ns.Put(mkSeries(t, "a", 0, []float64{5, 6}))
	if got := ns.Get(0, "a").Len(); got != 2 {
		t.Errorf("replacement series length = %d", got)
	}
	if ns.NumSeries() != 1 {
		t.Errorf("NumSeries = %d after replace", ns.NumSeries())
	}
}

func TestFilterMetrics(t *testing.T) {
	ns := NewNodeSet()
	ns.Put(mkSeries(t, "a", 0, []float64{1}))
	ns.Put(mkSeries(t, "b", 0, []float64{1}))
	ns.Put(mkSeries(t, "c", 0, []float64{1}))
	f := ns.FilterMetrics([]string{"a", "c", "zzz"})
	if got := f.Metrics(); len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Errorf("FilterMetrics = %v", got)
	}
	// Shared series: the filter is a view.
	if f.Get(0, "a") != ns.Get(0, "a") {
		t.Error("filtered series should be shared, not copied")
	}
}

// FilterMetrics returns a shallow view containing only the listed
// metrics (series are shared, not copied). Unknown names are ignored.
func (ns *NodeSet) FilterMetrics(metrics []string) *NodeSet {
	want := make(map[string]bool, len(metrics))
	for _, m := range metrics {
		want[m] = true
	}
	out := NewNodeSet()
	for _, m := range ns.series {
		for name, s := range m {
			if want[name] {
				out.Put(s)
			}
		}
	}
	return out
}

// Sealed reports whether the prefix sums are current.
func (s *Series) Sealed() bool { return s.pre != nil }

// Values returns a copy of the raw values of all samples, in order.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.vals))
	copy(out, s.vals)
	return out
}

// Duration reports the length of the window.
func (w Window) Duration() time.Duration { return w.End - w.Start }

// Slice returns the values of the samples falling in the window. It
// returns ErrShortSeries when the series ends before the window starts
// or contains no samples in the window, so callers can distinguish "the
// application finished early" from "the application was idle", and
// ErrUnsortedSeries when out-of-order appends have not been Sorted yet.
func (s *Series) Slice(w Window) ([]float64, error) {
	lo, hi, err := s.Bounds(w)
	if err != nil {
		return nil, err
	}
	out := make([]float64, hi-lo)
	copy(out, s.vals[lo:hi])
	return out, nil
}

// Resample returns a copy of the series re-gridded to the given period
// using last-observation-carried-forward, starting at offset zero and
// ending at the series duration. It is used to repair telemetry with
// missing or jittered collection ticks before windowing.
func (s *Series) Resample(period time.Duration) (*Series, error) {
	if period <= 0 {
		return nil, errors.New("telemetry: non-positive resample period")
	}
	if len(s.vals) == 0 {
		return &Series{Metric: s.Metric, Node: s.Node}, nil
	}
	dur := s.Duration()
	n := int(dur/period) + 1
	out := NewSeries(s.Metric, s.Node, n)
	j := 0
	last := s.vals[0]
	for i := 0; i < n; i++ {
		at := time.Duration(i) * period
		for j < len(s.vals) && s.OffsetAt(j) <= at {
			last = s.vals[j]
			j++
		}
		out.Append(at, last)
	}
	return out, nil
}
