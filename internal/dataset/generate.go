package dataset

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/par"
	"repro/internal/telemetry"
)

// GenConfig describes a synthetic dataset to generate.
type GenConfig struct {
	// Cluster configures the simulated system (nodes, noise, metric
	// selection).
	Cluster cluster.Config
	// Repeats is the number of executions per (application, input)
	// pair. Table 2's primary grid uses 30 repeats on 4 nodes.
	Repeats int
	// Seed makes generation reproducible.
	Seed int64
	// Windows are the intervals to summarize; nil uses
	// DefaultWindows().
	Windows []telemetry.Window
	// Apps restricts generation to the named applications; nil
	// generates all eleven.
	Apps []string
}

// DefaultGenConfig is the paper's primary grid: all applications, 4
// nodes, 30 repeats, default noise.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		Cluster: cluster.DefaultConfig(),
		Repeats: 30,
		Seed:    1,
	}
}

// genTask is one execution of the grid.
type genTask struct {
	spec apps.Spec
	in   apps.Input
	seed int64
}

// execSeed derives the random seed of the execution with the given ID
// from the dataset seed: a stable function of the grid coordinates,
// independent of which worker runs the execution when.
func execSeed(seed int64, id int) int64 { return seed*1_000_003 + int64(id)*7919 + 17 }

// genWorker is one generation worker's reusable state: its random
// source (reseeding it per execution reproduces a fresh
// rand.New(rand.NewSource(seed)) exactly), sampler and summarizer.
type genWorker struct {
	rng     *rand.Rand
	sampler cluster.Sampler
	sum     *summarizer
}

// Generate builds the dataset described by cfg on GOMAXPROCS workers.
// Every execution draws its randomness from an independent seed
// derived from cfg.Seed, so the result does not depend on the number
// of workers. Each series is summarized straight from the sampling
// kernel's buffer; no raw telemetry is kept.
func Generate(cfg GenConfig) (*Dataset, error) {
	if cfg.Repeats <= 0 {
		return nil, fmt.Errorf("dataset: repeats must be positive, got %d", cfg.Repeats)
	}
	sim, err := cluster.New(cfg.Cluster)
	if err != nil {
		return nil, err
	}
	windows := cfg.Windows
	if windows == nil {
		windows = DefaultWindows()
	}
	specs := apps.Catalog()
	if cfg.Apps != nil {
		var sel []apps.Spec
		for _, name := range cfg.Apps {
			s, ok := apps.Lookup(name)
			if !ok {
				return nil, fmt.Errorf("dataset: unknown application %q", name)
			}
			sel = append(sel, s)
		}
		specs = sel
	}

	var tasks []genTask
	for _, spec := range specs {
		for _, in := range spec.Inputs {
			for r := 0; r < cfg.Repeats; r++ {
				tasks = append(tasks, genTask{spec: spec, in: in, seed: execSeed(cfg.Seed, len(tasks))})
			}
		}
	}

	// At most this many tasks run at once, so the free list never runs
	// dry.
	workers := min(par.Workers(0), len(tasks))
	free := make(chan *genWorker, workers)
	for w := 0; w < workers; w++ {
		free <- &genWorker{rng: rand.New(rand.NewSource(0)), sum: newSummarizer(windows)}
	}
	execs := make([]*Execution, len(tasks))
	errs := make([]error, len(tasks))
	par.For(len(tasks), workers, func(i int) {
		w := <-free
		execs[i], errs[i] = w.generate(sim, i, tasks[i])
		free <- w
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &Dataset{Windows: windows, Executions: execs}, nil
}

// generate simulates and summarizes one execution.
func (w *genWorker) generate(sim *cluster.Simulator, id int, t genTask) (*Execution, error) {
	w.rng.Seed(t.seed)
	cfg := sim.Config()
	exec, err := t.spec.Instantiate(t.in, cfg.Nodes, w.rng)
	if err != nil {
		return nil, err
	}
	e := &Execution{
		ID:       id,
		Label:    apps.Label{App: t.spec.Name, Input: t.in},
		NumNodes: exec.NumNodes,
		Stats:    make(map[string][]NodeMetricStats),
	}
	n := 0
	sim.Sample(exec, w.rng, &w.sampler, func(metric string, node int, vals []float64) {
		per := e.Stats[metric]
		if per == nil {
			per = make([]NodeMetricStats, exec.NumNodes)
			e.Stats[metric] = per
		}
		if len(vals) != n {
			n = len(vals)
			w.sum.gridBounds(cfg.Period, n)
		}
		per[node] = w.sum.series(vals)
	})
	e.Duration = time.Duration(n-1) * cfg.Period
	return e, nil
}
