package server

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/efd/monitor"
	"repro/internal/wire"
)

// FuzzDecodeRunsBody feeds arbitrary application/x-efd-runs request
// bodies to the pooled binary decoder. It must never panic; an
// accepted body carries exactly the samples its frames hold, in runs
// whose columns match in length; and decoding the same body again on
// the warmed decoder, whose arena the first pass grew, must give the
// same batches.
func FuzzDecodeRunsBody(f *testing.F) {
	run := func(job, metric string, node int, n int) []byte {
		offs := make([]time.Duration, n)
		vals := make([]float64, n)
		for i := range offs {
			offs[i] = time.Duration(60+i) * time.Second
			vals[i] = 6000 + float64(i)
		}
		return wire.AppendFrame(nil, wire.AppendRun(nil, job, metric, node, offs, vals))
	}
	two := append(run("j1", "nr_mapped_vmstat", 0, 3), run("j1", "nr_mapped_vmstat", 1, 5)...)
	f.Add(two)
	f.Add(append(append([]byte(nil), two...), run("j2", "m", 0, 1)...))
	f.Add(run("", "", 0, 0))
	f.Add(wire.AppendFrame(nil, wire.AppendRegister(nil, "j1", 4)))
	f.Add(two[:len(two)-5])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		d := &binDecoder{body: body}
		err := d.decode()
		first := snapshotBatches(d.batches)
		samples := 0
		_, _, walkErr := wire.WalkFrames(body, func(payload []byte) error {
			rec, err := wire.DecodeRecord(payload)
			if err == nil && rec.Type != wire.TypeRun {
				err = errors.New("not a run")
			}
			samples += len(rec.Vals)
			return err
		})
		if (err == nil) != (walkErr == nil) {
			t.Fatalf("decode err %v, frame walk err %v", err, walkErr)
		}
		if err == nil {
			got := 0
			for _, b := range first {
				for _, r := range b.runs {
					if len(r.offs) != len(r.vals) {
						t.Fatalf("run columns differ: %d offsets, %d values", len(r.offs), len(r.vals))
					}
					got += len(r.vals)
				}
			}
			if got != samples {
				t.Fatalf("decoded %d samples, frames hold %d", got, samples)
			}
		}
		for i := range d.batches {
			d.batches[i].Runs = nil
		}
		d.batches = d.batches[:0]
		if err2 := d.decode(); (err == nil) != (err2 == nil) {
			t.Fatalf("warmed decode err %v, first %v", err2, err)
		}
		if err != nil {
			return
		}
		second := snapshotBatches(d.batches)
		if len(second) != len(first) {
			t.Fatalf("warmed decode: %d batches, first %d", len(second), len(first))
		}
		for i := range first {
			if !first[i].equal(second[i]) {
				t.Fatalf("warmed decode differs in batch %d", i)
			}
		}
	})
}

type runCopy struct {
	metric string
	node   int
	offs   []time.Duration
	vals   []uint64
}

type batchCopy struct {
	job  string
	runs []runCopy
}

func (a batchCopy) equal(b batchCopy) bool {
	if a.job != b.job || len(a.runs) != len(b.runs) {
		return false
	}
	for i, r := range a.runs {
		s := b.runs[i]
		if r.metric != s.metric || r.node != s.node || len(r.offs) != len(s.offs) || len(r.vals) != len(s.vals) {
			return false
		}
		for j := range r.offs {
			if r.offs[j] != s.offs[j] {
				return false
			}
		}
		for j := range r.vals {
			if r.vals[j] != s.vals[j] {
				return false
			}
		}
	}
	return true
}

// snapshotBatches deep-copies decoded batches out of the decoder's
// arena, which the next decode overwrites.
func snapshotBatches(batches []monitor.RunBatch) []batchCopy {
	out := make([]batchCopy, len(batches))
	for i, b := range batches {
		out[i].job = b.JobID
		for _, r := range b.Runs {
			rc := runCopy{metric: r.Metric, node: r.Node, offs: append([]time.Duration(nil), r.Offsets...)}
			for _, v := range r.Values {
				rc.vals = append(rc.vals, math.Float64bits(v))
			}
			out[i].runs = append(out[i].runs, rc)
		}
	}
	return out
}
