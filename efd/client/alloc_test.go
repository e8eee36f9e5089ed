package client

import (
	"context"
	"testing"
	"time"

	"repro/efd/monitor"
	"repro/internal/apps"
)

// allocRuns is one ingest batch: 2 nodes × 64 in-window samples.
func allocRuns() []monitor.RunBatch {
	runs := make([]monitor.Run, 2)
	for node := 0; node < 2; node++ {
		offs := make([]time.Duration, 64)
		vals := make([]float64, 64)
		for k := range offs {
			offs[k] = time.Duration(60+k%60) * time.Second
			vals[k] = 6000 + float64(k)
		}
		runs[node] = monitor.Run{Metric: apps.HeadlineMetric, Node: node, Offsets: offs, Values: vals}
	}
	return []monitor.RunBatch{{JobID: "alloc", Runs: runs}}
}

// TestClientIngestAllocRatio pins the binary columnar encoding's
// allocation budget, client to stream: no more than
// binaryAllocsCeiling allocs/op (its value before the JSON ingest
// decoder stopped allocating per sample) and strictly fewer than the
// JSON path. BenchmarkClientIngest* in the root package report the
// absolute numbers.
func TestClientIngestAllocRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement over live HTTP")
	}
	measure := func(mode BinaryMode) float64 {
		_, c := newFixture(t, WithBinaryIngest(mode))
		ctx := context.Background()
		if err := c.Register(ctx, "alloc", 2); err != nil {
			t.Fatal(err)
		}
		batches := allocRuns()
		// Warm: connection establishment, pool/arena sizing.
		for i := 0; i < 3; i++ {
			if _, err := c.IngestRuns(ctx, batches); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := c.IngestRuns(ctx, batches); err != nil {
				t.Fatal(err)
			}
		})
	}
	jsonAllocs := measure(BinaryNever)
	binAllocs := measure(BinaryAlways)
	t.Logf("allocs/op: json %.0f, binary %.0f (%.2fx)", jsonAllocs, binAllocs, jsonAllocs/binAllocs)
	if binAllocs > binaryAllocsCeiling {
		t.Errorf("binary ingest allocates %.0f/op, above its ceiling of %d", binAllocs, binaryAllocsCeiling)
	}
	if binAllocs >= jsonAllocs {
		t.Errorf("binary ingest allocates %.0f/op, JSON %.0f/op: binary must allocate less", binAllocs, jsonAllocs)
	}
}
