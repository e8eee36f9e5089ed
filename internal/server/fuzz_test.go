package server

import (
	"encoding/json"
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
		d := &decoder{body: body}
		err := d.decodeRuns()
		first := snapshotBatches(d.runs)
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
		clear(d.runs)
		if err2 := d.decodeRuns(); (err == nil) != (err2 == nil) {
			t.Fatalf("warmed decode err %v, first %v", err2, err)
		}
		if err != nil {
			return
		}
		second := snapshotBatches(d.runs)
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

// samplesJSONSeeds are FuzzDecodeSamplesJSON's seed bodies: canonical
// bodies the scanner decodes, every shape it leaves to encoding/json,
// number forms strconv accepts and JSON does not, and broken bodies.
var samplesJSONSeeds = []string{
	// Canonical: what efd/client's json.Marshal sends.
	`{"job_id":"j1","samples":[{"metric":"m","node":0,"offset_s":60,"value":6000},{"metric":"m","node":1,"offset_s":60.5,"value":-1.25e-7}]}`,
	`{"batches":[{"job_id":"a","samples":[{"metric":"m","node":3,"offset_s":0,"value":1.7976931348623157e+308}]},{"job_id":"b","samples":[]}]}`,
	" {\n \"batches\" : [ ] ,\t\"job_id\":\"x\", \"samples\":[{\"value\":5e-324,\"node\":-0}]}\r\n",
	`{"samples":[{"metric":"m"}],"batches":[{"samples":[{"node":2}],"job_id":"z"}],"job_id":""}`,
	`{}`,
	`{"batches":[{}]}`,
	// Key semantics encoding/json has and the scanner defers.
	`{"Job_ID":"j1","samples":[{"metric":"m","node":0,"offset_s":1,"value":2}]}`,
	`{"job_id":"j1","samples":[{"METRIC":"m","Node":0,"offset_s":1,"value":2}]}`,
	`{"job_id":"j1","extra":{"a":[1,2]},"samples":[{"metric":"m","node":0,"offset_s":1,"value":2,"unit":"B"}]}`,
	`{"job_id":"j1","samples":null}`,
	`{"job_id":null,"batches":null}`,
	`{"job_id":"j1","samples":[{"metric":null,"node":null,"offset_s":null,"value":null}]}`,
	`null`,
	`{"job_id":"a","job_id":"b","samples":[{"metric":"m","node":0,"offset_s":1,"value":2}]}`,
	`{"job_id":"a","samples":[{"metric":"m","node":4,"offset_s":1,"value":2}],"samples":[{"offset_s":3}]}`,
	`{"job_id":"a","samples":[{"metric":"m","value":1,"value":2}]}`,
	`{"batches":[{"job_id":"a"}],"batches":[{"samples":[{"value":1}]}]}`,
	// Strings outside the scanner's subset.
	`{"job_id":"j1","samples":[{"metric":"nr\u005fmapped","node":0,"offset_s":1,"value":2}]}`,
	`{"job_id":"j1","samples":[{"metric":"a\"b\\c\/d\n","node":0,"offset_s":1,"value":2}]}`,
	"{\"job_id\":\"j1\",\"samples\":[{\"metric\":\"m\xff\xfe\",\"node\":0,\"offset_s\":1,\"value\":2}]}",
	"{\"job_id\":\"jö\",\"samples\":[{\"metric\":\"μ\",\"node\":0,\"offset_s\":1,\"value\":2}]}",
	"{\"job_id\":\"j\x01\",\"samples\":[{\"metric\":\"m\tn\",\"node\":0,\"offset_s\":1,\"value\":2}]}",
	"{\"job_id\":\"j1\x7f\",\"samples\":[]}",
	// Numbers: out of range, non-integer nodes, and forms strconv
	// parses that are not JSON.
	`{"job_id":"j1","samples":[{"metric":"m","node":0,"offset_s":1,"value":1e400}]}`,
	`{"job_id":"j1","samples":[{"metric":"m","node":0,"offset_s":-1e400,"value":1e-400}]}`,
	`{"job_id":"j1","samples":[{"metric":"m","node":1.0,"offset_s":1,"value":2}]}`,
	`{"job_id":"j1","samples":[{"metric":"m","node":1e2,"offset_s":1,"value":2}]}`,
	`{"job_id":"j1","samples":[{"metric":"m","node":99999999999999999999,"offset_s":1,"value":2}]}`,
	`{"job_id":"j1","samples":[{"metric":"m","node":"0","offset_s":"1","value":true}]}`,
	`{"job_id":"j1","samples":[{"metric":"m","node":+1,"offset_s":1,"value":2}]}`,
	`{"job_id":"j1","samples":[{"metric":"m","node":0,"offset_s":.5,"value":2}]}`,
	`{"job_id":"j1","samples":[{"metric":"m","node":0,"offset_s":1.,"value":2}]}`,
	`{"job_id":"j1","samples":[{"metric":"m","node":0,"offset_s":1,"value":Inf}]}`,
	`{"job_id":"j1","samples":[{"metric":"m","node":0,"offset_s":1,"value":NaN}]}`,
	`{"job_id":"j1","samples":[{"metric":"m","node":0,"offset_s":0x1p3,"value":2}]}`,
	`{"job_id":"j1","samples":[{"metric":"m","node":0,"offset_s":1_0,"value":2}]}`,
	`{"job_id":"j1","samples":[{"metric":"m","node":0,"offset_s":01,"value":-}]}`,
	`{"job_id":"j1","samples":[{"metric":"m","node":0,"offset_s":1e,"value":2E+}]}`,
	`{"job_id":"j1","samples":[{"metric":"m","node":-0,"offset_s":-0.0,"value":1E-2}]}`,
	// Trailing data, truncation and other broken bodies.
	`{"job_id":"a","samples":[{"metric":"m","node":0,"offset_s":1,"value":2}]}{"job_id":"b"}garbage`,
	`{"job_id":"a"}` + "\n",
	`{"job_id":"a"} x`,
	`{"job_id":"a","samples":[{"metric":"m","node":0,"offset_s":1,"value":2}`,
	`{"job_id":"a","samples":[{"metric":"m",},]}`,
	`{"job_id":"a",}`,
	"\xef\xbb\xbf{}",
	`[]`,
	``,
	`"x"`,
}

// FuzzDecodeSamplesJSON is differential against encoding/json: for any
// body, decodeSamples must accept exactly when json.Unmarshal into an
// ingestRequest does, with the same error text, and give the same
// batches in the same order — job IDs and metric names equal as
// strings, numbers equal by bits. The decoder first decodes a
// canonical body, so the fuzzed one reuses a warmed arena and intern
// table.
func FuzzDecodeSamplesJSON(f *testing.F) {
	for _, seed := range samplesJSONSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req ingestRequest
		wantErr := json.Unmarshal(body, &req)
		want := req.Batches
		if req.JobID != "" || len(req.Samples) > 0 {
			want = append(want, sampleBatch{JobID: req.JobID, Samples: req.Samples})
		}

		d := &decoder{body: []byte(samplesJSONSeeds[0])}
		if _, err := d.decodeSamples(); err != nil {
			t.Fatal(err)
		}
		d.body = body
		single, err := d.decodeSamples()
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("decodeSamples err %v, json.Unmarshal err %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if single != (len(req.Batches) == 0) {
			t.Fatalf("single = %v with %d multi-job batches", single, len(req.Batches))
		}
		if len(d.batches) != len(want) {
			t.Fatalf("%d batches, json.Unmarshal gives %d", len(d.batches), len(want))
		}
		for i, b := range d.batches {
			w := want[i]
			if b.JobID != w.JobID || len(b.Samples) != len(w.Samples) {
				t.Fatalf("batch %d: job %q with %d samples, want %q with %d", i, b.JobID, len(b.Samples), w.JobID, len(w.Samples))
			}
			for k, s := range b.Samples {
				ws := w.Samples[k]
				if s.Metric != ws.Metric || s.Node != ws.Node ||
					math.Float64bits(s.OffsetS) != math.Float64bits(ws.OffsetS) ||
					math.Float64bits(s.Value) != math.Float64bits(ws.Value) {
					t.Fatalf("batch %d sample %d: %+v, json.Unmarshal gives %+v", i, k, s, ws)
				}
			}
		}
	})
}
