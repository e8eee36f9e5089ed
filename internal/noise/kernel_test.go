package noise_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/noise"
)

// referenceRun is Simulator.Run as it sampled before the table-driven
// kernel: a fresh model chain per (metric, node) series, evaluated
// sample by sample, with every random draw in the original order. It
// returns the series of the metrics cfg selects, in selection order
// (the catalog's when cfg.Metrics is nil). The ideal values come from apps' Level and
// Shape, which TestShapeMatchesIdeal in internal/apps holds to the
// per-sample Ideal reference bit for bit.
func referenceRun(cfg cluster.Config, spec apps.Spec, in apps.Input, rng *rand.Rand) ([][][]float64, error) {
	exec, err := spec.Instantiate(in, cfg.Nodes, rng)
	if err != nil {
		return nil, err
	}
	n := int(exec.Duration()/cfg.Period) + 1
	ampScale := 0.7 + 0.6*rng.Float64()
	var out [][][]float64 // [selected metric][node][sample]
	for _, mi := range metricIndexes(cfg) {
		m := apps.Metrics()[mi]
		prof := cfg.Noise
		prof.Jitter += m.JitterRel
		prof.InitAmplitude *= ampScale
		if m.Kind == apps.KindConstant {
			prof = noise.Profile{Jitter: prof.Jitter}
		}
		ripple, growth := exec.Shape(mi, cfg.Period, make([]float64, n), make([]float64, n))
		perNode := make([][]float64, exec.NumNodes)
		for node := range perNode {
			chain := prof.NewChain()
			series := make([]float64, n)
			for i := range series {
				t := time.Duration(i) * cfg.Period
				ideal := exec.Level(mi, node)
				if ripple != nil {
					ideal *= ripple[i]
				}
				if growth != nil {
					ideal *= growth[i]
				}
				v := chain.Perturb(rng, t, ideal)
				if v < 0 {
					v = 0
				}
				series[i] = v
			}
			perNode[node] = series
		}
		out = append(out, perNode)
	}
	return out, nil
}

// metricIndexes returns the catalog indexes of the metrics cfg
// selects, in catalog order: the order the simulator samples them in
// when cfg.Metrics lists them in catalog order, as the tests do.
func metricIndexes(cfg cluster.Config) []int {
	var out []int
	for mi, m := range apps.Metrics() {
		if cfg.Metrics == nil || slices.Contains(cfg.Metrics, m.Name) {
			out = append(out, mi)
		}
	}
	return out
}

// TestKernelMatchesChain is the noise half of the sampling kernel's
// differential test (the ideal half is TestShapeMatchesIdeal): the
// simulator's table-driven kernel against the per-sample model chain,
// sample for sample to the last bit, and with the random stream left
// in the same state. It covers every catalog metric kind — gauges,
// rates and the constant node properties, whose chain still draws the
// interference decision at probability 0 — under DefaultProfile,
// QuietProfile, the zero profile and a loud profile with
// frequent spikes, interference and negative drift; 24 seeds, 1 to 4
// nodes, three sampling periods, and a miniAMR execution per seed,
// which runs past 130 s and so through its growth steps. Every sixth
// seed samples the full catalog; the others a gauge, two rates (one
// jittery enough to clamp at zero) and a node property.
func TestKernelMatchesChain(t *testing.T) {
	loud := noise.Profile{
		Jitter: 0.02, SpikeProb: 0.2, SpikeMagnitude: 0.5, DriftPerMinute: -0.01,
		InitAmplitude: 1.5, InitSettle: 20 * time.Second,
		InterferenceProb: 0.5, InterferenceLevel: 0.05,
	}
	profiles := []struct {
		name string
		p    noise.Profile
	}{
		{"default", noise.DefaultProfile()},
		{"quiet", noise.QuietProfile()},
		{"zero", noise.Profile{}},
		{"loud", loud},
	}
	periods := []time.Duration{time.Second, 500 * time.Millisecond, 2 * time.Second}
	miniAMR, _ := apps.Lookup("miniAMR")
	// In catalog order; see metricIndexes.
	subset := []string{apps.HeadlineMetric, "nr_dirty_vmstat", "pgmajfault_vmstat", "MemTotal_meminfo"}
	kinds := map[apps.MetricKind]int{}
	clamped, grown := 0, false
	for _, prof := range profiles {
		for seed := int64(1); seed <= 24; seed++ {
			cfg := cluster.Config{Nodes: 1 + int(seed%4), Period: periods[seed%3], Noise: prof.p}
			if seed%6 != 0 {
				cfg.Metrics = subset
			}
			sim, err := cluster.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			spec := apps.Catalog()[int(seed)%len(apps.Catalog())]
			for _, run := range []struct {
				spec apps.Spec
				in   apps.Input
			}{
				{spec, spec.Inputs[int(seed)%len(spec.Inputs)]},
				{miniAMR, miniAMR.Inputs[int(seed)%len(miniAMR.Inputs)]},
			} {
				rngK, rngR := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				ns, exec, err := sim.Run(run.spec, run.in, rngK)
				if err != nil {
					t.Fatal(err)
				}
				want, err := referenceRun(cfg, run.spec, run.in, rngR)
				if err != nil {
					t.Fatal(err)
				}
				if run.spec.Name == "miniAMR" && exec.Duration() > 170*time.Second {
					grown = true
				}
				for k, mi := range metricIndexes(cfg) {
					m := apps.Metrics()[mi]
					kinds[m.Kind]++
					for node, ref := range want[k] {
						s := ns.Get(node, m.Name)
						if s == nil || s.Len() != len(ref) {
							t.Fatalf("%s seed %d %s_%s %s node %d: kernel series missing or of the wrong length",
								prof.name, seed, run.spec.Name, run.in, m.Name, node)
						}
						for i, v := range ref {
							got := s.ValueAt(i)
							if math.Float64bits(got) != math.Float64bits(v) {
								t.Fatalf("%s seed %d %s_%s %s node %d sample %d: kernel %v, chain %v",
									prof.name, seed, run.spec.Name, run.in, m.Name, node, i, got, v)
							}
							if s.OffsetAt(i) != time.Duration(i)*cfg.Period {
								t.Fatalf("%s seed %d: sample %d at %v, want %v", prof.name, seed, i, s.OffsetAt(i), time.Duration(i)*cfg.Period)
							}
							if v == 0 {
								clamped++
							}
						}
					}
				}
				if a, b := rngK.Int63(), rngR.Int63(); a != b {
					t.Fatalf("%s seed %d %s_%s: the kernel and the chain leave the random stream in different states",
						prof.name, seed, run.spec.Name, run.in)
				}
			}
		}
	}
	if kinds[apps.KindGauge] == 0 || kinds[apps.KindRate] == 0 || kinds[apps.KindConstant] == 0 {
		t.Fatalf("metric kinds covered: %v", kinds)
	}
	if !grown {
		t.Fatal("no miniAMR execution reached a growth step")
	}
	if clamped == 0 {
		t.Fatal("no sample was clamped at zero")
	}
}
