package dataset

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/noise"
)

// TestGenerateMatchesSummarizeRun holds Generate, which summarizes each
// series straight from the sampling kernel's buffer, to the long way
// round: Simulator.Run collects the execution's telemetry from the
// same seed, and Summarize condenses it. Every execution must render
// the same SaveCSV bytes, under two cluster configurations (the
// default, and a quiet two-node system sampling every 500 ms) over the
// full metric catalog.
func TestGenerateMatchesSummarizeRun(t *testing.T) {
	quiet := cluster.Config{Nodes: 2, Period: 500 * time.Millisecond, Noise: noise.QuietProfile()}
	for _, cc := range []cluster.Config{cluster.DefaultConfig(), quiet} {
		cfg := GenConfig{Cluster: cc, Repeats: 1, Seed: 5, Apps: []string{"ft", "miniAMR", "CoMD"}}
		ds, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := cluster.New(cc)
		if err != nil {
			t.Fatal(err)
		}
		windows := DefaultWindows()
		for _, e := range ds.Executions {
			spec, _ := apps.Lookup(e.Label.App)
			ns, _, err := sim.Run(spec, e.Label.Input, rand.New(rand.NewSource(execSeed(cfg.Seed, e.ID))))
			if err != nil {
				t.Fatal(err)
			}
			want := csvBytes(t, &Dataset{Windows: windows, Executions: []*Execution{Summarize(e.ID, e.Label, ns, windows)}})
			got := csvBytes(t, &Dataset{Windows: windows, Executions: []*Execution{e}})
			if !bytes.Equal(got, want) {
				t.Fatalf("period %v: execution %d (%s) differs from Summarize(Run):\n%s",
					cc.Period, e.ID, e.Label, firstCSVDiff(got, want))
			}
		}
	}
}

// TestGenerateDigest pins the SaveCSV SHA-256 of a full-catalog grid:
// all eleven applications, every metric, 4 nodes, 2 repeats, seed 1.
// The digest was captured from the per-sample model chain that
// preceded the table-driven sampling kernel; any change to the
// simulated values, the summaries or their rendering moves it.
func TestGenerateDigest(t *testing.T) {
	const want = "0aef3470e0984e99cad3d6a0b08c6da5642efb79493b87bcf9d88de719545e0d"
	cfg := DefaultGenConfig()
	cfg.Repeats = 2
	cfg.Seed = 1
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(csvBytes(t, ds))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("dataset digest %s, want %s", got, want)
	}
}

// TestGenerateAllocsBelowRawSeries pins what Generate allocates per
// execution below the size of the raw telemetry it summarizes: one
// float64 per sample of every (metric, node) series. Summarizing from
// the kernel's reused buffer allocates only the summaries, about a
// quarter of that; materializing each series in its own buffer, as
// collecting a NodeSet does, would exceed the bound on its own.
func TestGenerateAllocsBelowRawSeries(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Apps = []string{"ft", "miniAMR"}
	cfg.Repeats = 2
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ds, err := Generate(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	var raw uint64
	for _, e := range ds.Executions {
		samples := uint64(e.Duration/cfg.Cluster.Period) + 1
		raw += samples * uint64(len(e.Stats)*e.NumNodes) * 8
	}
	n := uint64(ds.Len())
	perExec, rawPerExec := (after.TotalAlloc-before.TotalAlloc)/n, raw/n
	t.Logf("%d executions: %d B allocated per execution, raw series %d B", n, perExec, rawPerExec)
	if perExec >= rawPerExec {
		t.Fatalf("Generate allocated %d B per execution, not below the %d B of its raw series", perExec, rawPerExec)
	}
}
