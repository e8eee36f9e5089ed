package wire

import (
	"math"
	"testing"
	"time"
)

// FuzzDecodeRunInto feeds arbitrary payloads to the run decoder the
// server's binary ingest path uses on request bodies. It must never
// panic, must agree with DecodeRecord on every run payload, and a
// decoded run must survive re-encoding unchanged.
func FuzzDecodeRunInto(f *testing.F) {
	offs := []time.Duration{0, time.Second, 3 * time.Second, 2 * time.Second}
	vals := []float64{1.5, -2.25, math.Inf(1), math.NaN()}
	run := AppendRun(nil, "job-1", "nr_mapped_vmstat", 3, offs, vals)
	f.Add(run)
	f.Add(AppendRun(nil, "", "", 0, nil, nil))
	f.Add(AppendRun(nil, "j", "m", 1<<20, []time.Duration{-time.Second}, []float64{0}))
	f.Add(AppendFrame(nil, run))
	f.Add(AppendRegister(nil, "job-1", 4))
	f.Add(run[:len(run)-3])
	f.Fuzz(func(t *testing.T, payload []byte) {
		scratchOffs := make([]time.Duration, 0, 4)
		scratchVals := make([]float64, 0, 4)
		rec, err := DecodeRunInto(payload, scratchOffs, scratchVals)
		ref, refErr := DecodeRecord(payload)
		if err != nil {
			if refErr == nil && ref.Type == TypeRun {
				t.Fatalf("DecodeRunInto rejected a run DecodeRecord accepts: %v", err)
			}
			return
		}
		if refErr != nil {
			t.Fatalf("DecodeRecord rejected a run DecodeRunInto accepts: %v", refErr)
		}
		if len(rec.Offs) != len(rec.Vals) {
			t.Fatalf("column lengths differ: %d offsets, %d values", len(rec.Offs), len(rec.Vals))
		}
		sameRun(t, "DecodeRecord", ref, rec)
		again, err := DecodeRunInto(AppendRun(nil, rec.Job, rec.Metric, rec.Node, rec.Offs, rec.Vals), nil, nil)
		if err != nil {
			t.Fatalf("re-encoded run does not decode: %v", err)
		}
		sameRun(t, "re-encoded", again, rec)
	})
}

func sameRun(t *testing.T, what string, got, want Record) {
	t.Helper()
	if got.Type != want.Type || got.Job != want.Job || got.Metric != want.Metric || got.Node != want.Node || len(got.Vals) != len(want.Vals) || len(got.Offs) != len(want.Offs) {
		t.Fatalf("%s run differs: %+v vs %+v", what, got, want)
	}
	for i := range want.Vals {
		if got.Offs[i] != want.Offs[i] || math.Float64bits(got.Vals[i]) != math.Float64bits(want.Vals[i]) {
			t.Fatalf("%s run differs at sample %d", what, i)
		}
	}
}
