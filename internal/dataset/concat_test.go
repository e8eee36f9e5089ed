package dataset

import (
	"fmt"
	"testing"

	"repro/internal/apps"
)

func TestConcatMergesGrids(t *testing.T) {
	// A miniature version of Table 2's two grids: 4-node and 32-node
	// executions of the same applications in one corpus.
	small := smallConfig()
	small.Repeats = 3

	large := smallConfig()
	large.Repeats = 2
	large.Cluster.Nodes = 8
	large.Seed = 2

	a, err := Generate(small)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(large)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := Concat(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != a.Len()+b.Len() {
		t.Fatalf("merged %d executions, want %d", merged.Len(), a.Len()+b.Len())
	}
	if err := merged.Validate(); err != nil {
		t.Fatalf("merged dataset invalid: %v", err)
	}
	// Both node widths must be present.
	widths := make(map[int]int)
	for _, e := range merged.Executions {
		widths[e.NumNodes]++
	}
	if widths[2] != a.Len() || widths[8] != b.Len() {
		t.Errorf("node widths = %v", widths)
	}
	// Source datasets keep their own IDs; merged IDs are renumbered.
	if a.Executions[0].ID != 0 || merged.Executions[a.Len()].ID != a.Len() {
		t.Error("ID renumbering wrong")
	}
}

func TestConcatErrors(t *testing.T) {
	if _, err := Concat(); err == nil {
		t.Error("empty concat should fail")
	}
	a, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	differentWindows := &Dataset{Windows: a.Windows[:1]}
	if _, err := Concat(a, differentWindows); err == nil {
		t.Error("mismatched window configurations should fail")
	}
}

func TestLargeNodeGenConfig(t *testing.T) {
	cfg := LargeNodeGenConfig()
	if cfg.Cluster.Nodes != 32 || cfg.Repeats != 6 {
		t.Fatalf("secondary grid = %d nodes × %d repeats, want 32 × 6",
			cfg.Cluster.Nodes, cfg.Repeats)
	}
	// Generate one application's worth to keep the test fast, and
	// verify the 32-node executions fingerprint correctly.
	cfg.Apps = []string{"ft"}
	cfg.Repeats = 2
	cfg.Cluster.Metrics = []string{apps.HeadlineMetric}
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Executions[0].NumNodes != 32 {
		t.Fatalf("NumNodes = %d", ds.Executions[0].NumNodes)
	}
	for node := 0; node < 32; node++ {
		if _, ok := ds.Executions[0].WindowMean(apps.HeadlineMetric, node, ds.Windows[1]); !ok {
			t.Fatalf("node %d missing window mean", node)
		}
	}
}

// Concat combines datasets into one, re-numbering execution IDs so they
// stay unique. It is how the two grids of Table 2 (4-node × 30 repeats
// and 32-node × 6 repeats) merge into a single evaluation corpus: node
// count is part of the fingerprint space (node IDs are key components),
// so executions of different widths coexist in one dictionary.
//
// All inputs must share the same window configuration; executions are
// shallow-copied (their Stats maps are shared), so callers must not
// mutate them afterwards.
func Concat(parts ...*Dataset) (*Dataset, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("dataset: nothing to concatenate")
	}
	out := &Dataset{Windows: parts[0].Windows}
	id := 0
	for pi, p := range parts {
		if len(p.Windows) != len(out.Windows) {
			return nil, fmt.Errorf("dataset: part %d has %d windows, expected %d",
				pi, len(p.Windows), len(out.Windows))
		}
		for wi := range p.Windows {
			if p.Windows[wi] != out.Windows[wi] {
				return nil, fmt.Errorf("dataset: part %d window %d is %v, expected %v",
					pi, wi, p.Windows[wi], out.Windows[wi])
			}
		}
		for _, e := range p.Executions {
			copied := *e
			copied.ID = id
			id++
			out.Executions = append(out.Executions, &copied)
		}
	}
	return out, nil
}

// LargeNodeGenConfig is the secondary grid of Table 2: 32 nodes with 6
// repeats per pair.
func LargeNodeGenConfig() GenConfig {
	cfg := DefaultGenConfig()
	cfg.Cluster.Nodes = 32
	cfg.Repeats = 6
	cfg.Seed = 2
	return cfg
}
