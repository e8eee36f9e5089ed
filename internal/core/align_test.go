package core

import (
	"io"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/telemetry"
)

// rampTelemetry builds raw telemetry whose value is level during
// [realStart+60, realStart+120) and level+1000 elsewhere, so a
// misaligned window produces a visibly different mean.
func rampTelemetry(level float64, nodes int, realStart, total time.Duration) *telemetry.NodeSet {
	ns := telemetry.NewNodeSet()
	for node := 0; node < nodes; node++ {
		s := telemetry.NewSeries(apps.HeadlineMetric, node, int(total/time.Second))
		for t := time.Duration(0); t <= total; t += time.Second {
			v := level + 1000
			rel := t - realStart
			if rel >= 60*time.Second && rel < 120*time.Second {
				v = level
			}
			s.Append(t, v)
		}
		ns.Put(s)
	}
	return ns
}

func TestTelemetrySourceBasics(t *testing.T) {
	ns := rampTelemetry(6000, 2, 0, 200*time.Second)
	src := NewTelemetrySource(ns)
	if src.NodeCount() != 2 {
		t.Fatalf("NodeCount = %d", src.NodeCount())
	}
	mean, ok := src.WindowMean(apps.HeadlineMetric, 0, telemetry.PaperWindow)
	if !ok || mean != 6000 {
		t.Fatalf("WindowMean = %v ok=%v, want 6000", mean, ok)
	}
	if _, ok := src.WindowMean("nope", 0, telemetry.PaperWindow); ok {
		t.Error("unknown metric should yield no mean")
	}
	// Negative-shifted window below zero yields no mean.
	src.Shift = -2 * time.Minute
	if _, ok := src.WindowMean(apps.HeadlineMetric, 0, telemetry.PaperWindow); ok {
		t.Error("window shifted below zero should yield no mean")
	}
}

func TestRecognizeAlignedRecoversOffset(t *testing.T) {
	d, _ := NewDictionary(paperCfg(2))
	label := apps.Label{App: "ft", Input: apps.InputX}
	// Learn from perfectly aligned telemetry.
	d.Learn(NewTelemetrySource(rampTelemetry(6000, 2, 0, 200*time.Second)), label)

	// The test execution actually started 20 s before the monitor
	// began attributing samples to it: its steady window sits at
	// [40:100) in monitor time, so the nominal [60:120) window mixes
	// in the elevated phase and misses the dictionary.
	shifted := rampTelemetry(6000, 2, -20*time.Second, 200*time.Second)

	plain := d.Recognize(NewTelemetrySource(shifted))
	if plain.Recognized() {
		t.Fatalf("misaligned telemetry should not match plainly: %+v", plain)
	}
	aligned := d.RecognizeAligned(shifted, nil)
	if aligned.Top() != "ft" {
		t.Fatalf("aligned recognition = %+v, want ft", aligned)
	}
	if aligned.Offset != -20*time.Second {
		t.Errorf("recovered offset = %v, want -20s", aligned.Offset)
	}
}

func TestRecognizeAlignedPrefersZeroOffsetOnTies(t *testing.T) {
	d, _ := NewDictionary(paperCfg(2))
	label := apps.Label{App: "ft", Input: apps.InputX}
	// Constant telemetry: every offset matches equally well.
	ns := telemetry.NewNodeSet()
	s := telemetry.NewSeries(apps.HeadlineMetric, 0, 200)
	for t0 := time.Duration(0); t0 <= 200*time.Second; t0 += time.Second {
		s.Append(t0, 6000)
	}
	ns.Put(s)
	d.Learn(NewTelemetrySource(ns), label)
	res := d.RecognizeAligned(ns, nil)
	if res.Top() != "ft" || res.Offset != 0 {
		t.Fatalf("tie should prefer zero offset: %+v", res)
	}
}

func TestWeightedVotingBreaksNoiseTies(t *testing.T) {
	d, _ := NewDictionary(paperCfg(3))
	a := apps.Label{App: "steady", Input: apps.InputX}
	b := apps.Label{App: "noisy", Input: apps.InputX}
	src := srcWith(1, apps.HeadlineMetric, 6000)
	// "steady" produced this key in 9 runs, "noisy" once.
	for i := 0; i < 9; i++ {
		d.Learn(src, a)
	}
	d.Learn(src, b)

	uniform := d.Recognize(src)
	if len(uniform.Apps) != 2 {
		t.Fatalf("uniform voting should tie: %+v", uniform)
	}
	weighted := d.RecognizeWeighted(src)
	if weighted.Top() != "steady" || len(weighted.Apps) != 1 {
		t.Fatalf("weighted voting should pick steady: %+v", weighted)
	}
	if weighted.VotesFor("steady") != 9 || weighted.VotesFor("noisy") != 1 {
		t.Errorf("weighted votes = %v", weighted.Votes())
	}
	if c := weighted.Confidence(); c != 1 {
		t.Errorf("weighted confidence should clamp to 1, got %v", c)
	}
}

func TestCountsAndCompact(t *testing.T) {
	d, _ := NewDictionary(paperCfg(3))
	l := apps.Label{App: "ft", Input: apps.InputX}
	common := srcWith(1, apps.HeadlineMetric, 6000)
	rare := srcWith(1, apps.HeadlineMetric, 6060)
	for i := 0; i < 5; i++ {
		d.Learn(common, l)
	}
	d.Learn(rare, l)

	fpCommon := Extract(common, d.Config())[0]
	fpRare := Extract(rare, d.Config())[0]
	if d.Count(fpCommon, l) != 5 || d.Count(fpRare, l) != 1 {
		t.Fatalf("counts: common=%d rare=%d", d.Count(fpCommon, l), d.Count(fpRare, l))
	}
	if d.Count(Fingerprint{Metric: "x"}, l) != 0 {
		t.Error("unknown key should count 0")
	}

	if removed := d.Compact(1); removed != 0 {
		t.Errorf("Compact(1) removed %d", removed)
	}
	if removed := d.Compact(3); removed != 1 {
		t.Errorf("Compact(3) removed %d, want 1 (the rare key)", removed)
	}
	if d.Len() != 1 || d.Lookup(fpCommon) == nil {
		t.Error("common key should survive compaction")
	}
	// The last key of a label is never removed.
	if removed := d.Compact(100); removed != 0 {
		t.Errorf("Compact must not orphan a label, removed %d", removed)
	}
	if d.Len() != 1 {
		t.Error("label orphaned by compaction")
	}
}

func TestCountsSurviveSaveLoadAndMerge(t *testing.T) {
	d, _ := NewDictionary(paperCfg(3))
	l := apps.Label{App: "ft", Input: apps.InputX}
	src := srcWith(1, apps.HeadlineMetric, 6000)
	for i := 0; i < 4; i++ {
		d.Learn(src, l)
	}
	fp := Extract(src, d.Config())[0]

	var buf stringsBuilder
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(buf.Reader())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Count(fp, l) != 4 {
		t.Errorf("loaded count = %d, want 4", loaded.Count(fp, l))
	}

	other, _ := NewDictionary(paperCfg(3))
	other.Learn(src, l)
	other.Merge(d)
	if other.Count(fp, l) != 5 {
		t.Errorf("merged count = %d, want 5", other.Count(fp, l))
	}
}

func TestJointExtract(t *testing.T) {
	cfg := Config{
		Metrics: []string{"m1", "m2"},
		Windows: []telemetry.Window{telemetry.PaperWindow},
		Depth:   2,
		Joint:   true,
	}
	src := mapSource{nodes: 2, means: map[string]float64{
		key("m1", 0, telemetry.PaperWindow): 6012,
		key("m2", 0, telemetry.PaperWindow): 84321,
		key("m1", 1, telemetry.PaperWindow): 6012,
		// m2 missing on node 1: the composite key is suppressed.
	}}
	fps := Extract(src, cfg)
	if len(fps) != 1 {
		t.Fatalf("joint fingerprints = %d, want 1", len(fps))
	}
	if fps[0].Metric != "m1+m2" || fps[0].Key != "6000|84000" {
		t.Errorf("joint fingerprint = %+v", fps[0])
	}
	if fps[0].Mean() != 6000 {
		t.Errorf("joint Mean() = %v", fps[0].Mean())
	}
}

// stringsBuilder is a tiny buffer usable as both writer and reader in
// round-trip tests.
type stringsBuilder struct{ data []byte }

func (b *stringsBuilder) Write(p []byte) (int, error) {
	b.data = append(b.data, p...)
	return len(p), nil
}

func (b *stringsBuilder) Reader() *bytesReader { return &bytesReader{data: b.data} }

type bytesReader struct {
	data []byte
	pos  int
}

func (r *bytesReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		return 0, errEOF
	}
	n := copy(p, r.data[r.pos:])
	r.pos += n
	return n, nil
}

var errEOF = io.EOF

// AlignedResult extends a recognition result with the temporal offset
// that produced it.
type AlignedResult struct {
	Result
	// Offset is the shift applied to the fingerprint windows.
	Offset time.Duration
}

// RecognizeAligned performs temporally aligned recognition — the third
// Shazam aspect the paper lists as future work (§2, §6). Monitoring
// pipelines do not always know the exact moment an application started
// (queue time, MPI launch, container start all blur it); a fingerprint
// window anchored at the wrong origin misses the dictionary. This
// method probes each candidate offset, recognizes the telemetry as if
// the execution had started that much earlier or later, and returns
// the offset whose recognition matched the most fingerprints (ties:
// more votes for the top application, then smaller absolute offset).
//
// With offsets == nil, offsets of 0, ±5 s, ±10 s, ±20 s and ±30 s are
// probed.
//
// RecognizeAligned is read-only on ns, so sorted telemetry can be
// probed concurrently. Every candidate offset re-queries the same
// series with shifted windows, so callers that can afford a one-time
// mutation should ns.Seal() beforehand: the sealed prefix sums
// amortize the whole alignment sweep to one pass per series.
func (d *Dictionary) RecognizeAligned(ns *telemetry.NodeSet, offsets []time.Duration) AlignedResult {
	if offsets == nil {
		offsets = []time.Duration{
			0,
			5 * time.Second, -5 * time.Second,
			10 * time.Second, -10 * time.Second,
			20 * time.Second, -20 * time.Second,
			30 * time.Second, -30 * time.Second,
		}
	}
	src := NewTelemetrySource(ns)
	best := AlignedResult{Offset: 0}
	first := true
	for _, off := range offsets {
		src.Shift = off
		res := d.Recognize(src)
		if first || betterAlignment(res, off, best) {
			best = AlignedResult{Result: res, Offset: off}
			first = false
		}
	}
	return best
}

// betterAlignment reports whether (res, off) beats the current best.
func betterAlignment(res Result, off time.Duration, best AlignedResult) bool {
	if res.Matched != best.Matched {
		return res.Matched > best.Matched
	}
	rv, bv := topVotes(res), topVotes(best.Result)
	if rv != bv {
		return rv > bv
	}
	return absDur(off) < absDur(best.Offset)
}

func topVotes(r Result) int {
	if len(r.Apps) == 0 {
		return 0
	}
	return r.VotesFor(r.Apps[0])
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}
