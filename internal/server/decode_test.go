package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/efd/client"
	"repro/efd/monitor"
	"repro/internal/apps"
)

// TestClientBodiesTakeScanner: the bodies efd/client sends in every
// JSON ingest form decode on the scanner, not the encoding/json
// fallback, and to as many samples as the client sent.
func TestClientBodiesTakeScanner(t *testing.T) {
	s := New(trainedDict(t))
	var fast, total int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d := s.decoder()
		defer s.release(d)
		if !d.readBody(w, r, s.MaxBodyBytes) {
			return
		}
		total++
		if _, ok := d.scanSamples(); ok {
			fast++
		}
		n := 0
		for _, b := range d.batches {
			n += len(b.Samples)
		}
		writeJSON(w, http.StatusOK, ingestResponse{Accepted: n})
	}))
	t.Cleanup(ts.Close)
	c := client.New(ts.URL, client.WithBinaryIngest(client.BinaryNever))
	ctx := context.Background()

	samples := []monitor.Sample{
		{Metric: apps.HeadlineMetric, Node: 0, OffsetS: 60, Value: 6010.123456789012},
		{Metric: apps.HeadlineMetric, Node: 1, OffsetS: 60.000000001, Value: -1e-300},
		{Metric: "Active_meminfo", Node: 3, OffsetS: 119.999999999, Value: 1.7976931348623157e308},
	}
	if n, err := c.Ingest(ctx, "single", samples); err != nil || n != 3 {
		t.Fatalf("Ingest: %d, %v", n, err)
	}
	res, err := c.IngestBatches(ctx, []monitor.Batch{{JobID: "a", Samples: samples}, {JobID: "b", Samples: samples[:1]}})
	if err != nil || res.Accepted != 4 {
		t.Fatalf("IngestBatches: %+v, %v", res, err)
	}
	runs := []monitor.RunBatch{{JobID: "r", Runs: []monitor.Run{{
		Metric: apps.HeadlineMetric, Node: 2,
		Offsets: []time.Duration{time.Minute, time.Minute + 1},
		Values:  []float64{0, 5e-324},
	}}}}
	if res, err := c.IngestRuns(ctx, runs); err != nil || res.Accepted != 2 {
		t.Fatalf("IngestRuns: %+v, %v", res, err)
	}
	body, err := json.Marshal(ingestBody(16, 4, 10))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := (&decoder{body: body}).scanSamples(); !ok {
		t.Error("the 640-sample multi-job body fell back to encoding/json")
	}
	if total != 3 || fast != total {
		t.Errorf("%d of %d client bodies took the scanner", fast, total)
	}
}

// ingestBody is a multi-job ingest request of jobs × nodes × perNode
// headline samples: job%02d, offsets from 60 s on the 1 s grid, values
// near the ft level.
func ingestBody(jobs, nodes, perNode int) any {
	batches := make([]monitor.Batch, jobs)
	for j := range batches {
		batches[j].JobID = fmt.Sprintf("job%02d", j)
		for node := 0; node < nodes; node++ {
			for k := 0; k < perNode; k++ {
				batches[j].Samples = append(batches[j].Samples, monitor.Sample{
					Metric: apps.HeadlineMetric, Node: node,
					OffsetS: float64(60 + k), Value: 6000.5 + float64(k)/3,
				})
			}
		}
	}
	return struct {
		Batches []monitor.Batch `json:"batches"`
	}{batches}
}

// TestJSONIngestAllocs pins the JSON ingest path's allocations on a
// 640-sample body (16 jobs × 4 nodes × 10 samples): a warmed decode
// allocates one string per batch, its job ID, and nothing per sample,
// and decoding adds no more than that to the engine's own
// IngestBatches. The pools are buffered channels, so the pin holds
// under -race too.
func TestJSONIngestAllocs(t *testing.T) {
	const jobs = 16
	body, err := json.Marshal(ingestBody(jobs, 4, 10))
	if err != nil {
		t.Fatal(err)
	}
	s := New(trainedDict(t))
	for j := 0; j < jobs; j++ {
		if _, err := s.Register(fmt.Sprintf("job%02d", j), 4); err != nil {
			t.Fatal(err)
		}
	}
	decode := func() *decoder {
		d := s.decoder()
		d.body = append(d.body[:0], body...)
		if _, err := d.decodeSamples(); err != nil || len(d.batches) != jobs {
			t.Fatalf("decode: %d batches, %v", len(d.batches), err)
		}
		return d
	}
	ingest := func(batches []monitor.Batch) {
		if accepted, unknown, err := s.IngestBatches(batches); err != nil || accepted != 640 || len(unknown) != 0 {
			t.Fatalf("ingest: %d accepted, unknown %v, %v", accepted, unknown, err)
		}
	}
	for i := 0; i < 3; i++ {
		d := decode()
		ingest(d.batches)
		s.release(d)
	}

	decodeAllocs := testing.AllocsPerRun(50, func() { s.release(decode()) })
	d := decode()
	engineAllocs := testing.AllocsPerRun(50, func() { ingest(d.batches) })
	s.release(d)
	totalAllocs := testing.AllocsPerRun(50, func() {
		d := decode()
		ingest(d.batches)
		s.release(d)
	})
	t.Logf("allocs/op: decode %.0f, IngestBatches %.0f, both %.0f", decodeAllocs, engineAllocs, totalAllocs)
	if decodeAllocs > jobs {
		t.Errorf("decoding %d batches allocates %.0f times, want at most one job ID string per batch", jobs, decodeAllocs)
	}
	if totalAllocs > engineAllocs+jobs {
		t.Errorf("decode + IngestBatches allocates %.0f, IngestBatches alone %.0f: decoding adds more than one allocation per batch", totalAllocs, engineAllocs)
	}
}
