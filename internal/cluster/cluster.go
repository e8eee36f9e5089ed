// Package cluster simulates the HPC system the telemetry comes from: a
// set of nodes on which application executions run while an LDMS-style
// monitor samples every catalog metric once per second on every node.
//
// The simulator is the stand-in for the Volta cluster behind the
// Taxonomist dataset. It owns the composition of ideal application
// behaviour (package apps) with system perturbations (package noise)
// in one table-driven sampling kernel, Sample: the time profiles of an
// execution are tabulated once (the noise tables per execution, the
// ripple and growth per metric), so each (metric, node) series costs
// a level times those tables plus its random draws. Run collects the
// series into per-execution telemetry (package telemetry); the dataset
// generator summarizes them straight from the kernel's buffer.
package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/apps"
	"repro/internal/noise"
	"repro/internal/telemetry"
)

// Config describes the simulated system.
type Config struct {
	// Nodes is the number of nodes allocated to each execution.
	Nodes int
	// Period is the monitoring sampling period (default 1 s).
	Period time.Duration
	// Noise is the perturbation environment of the system.
	Noise noise.Profile
	// Metrics restricts collection to the named metrics; nil collects
	// the full catalog. Restricting collection makes large parameter
	// sweeps dramatically cheaper.
	Metrics []string
}

// DefaultConfig returns the 4-node, 1 Hz, default-noise configuration
// matching the primary grid of Table 2.
func DefaultConfig() Config {
	return Config{
		Nodes:  4,
		Period: telemetry.DefaultPeriod,
		Noise:  noise.DefaultProfile(),
	}
}

// Simulator runs application executions on the simulated system.
type Simulator struct {
	cfg           Config
	metricIndexes []int
}

// New returns a simulator for the configuration. It validates the node
// count, period and metric names.
func New(cfg Config) (*Simulator, error) {
	if cfg.Nodes <= 0 {
		return nil, errors.New("cluster: node count must be positive")
	}
	if cfg.Period <= 0 {
		cfg.Period = telemetry.DefaultPeriod
	}
	s := &Simulator{cfg: cfg}
	if cfg.Metrics == nil {
		for i := range apps.Metrics() {
			s.metricIndexes = append(s.metricIndexes, i)
		}
		return s, nil
	}
	for _, name := range cfg.Metrics {
		found := false
		for i, m := range apps.Metrics() {
			if m.Name == name {
				s.metricIndexes = append(s.metricIndexes, i)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("cluster: unknown metric %q", name)
		}
	}
	if len(s.metricIndexes) == 0 {
		return nil, errors.New("cluster: empty metric selection")
	}
	return s, nil
}

// Config returns the simulator configuration, with the period
// defaulted.
func (s *Simulator) Config() Config { return s.cfg }

// Run instantiates one execution of the application with the given
// input and collects its telemetry. All randomness is drawn from rng.
func (s *Simulator) Run(spec apps.Spec, in apps.Input, rng *rand.Rand) (*telemetry.NodeSet, *apps.Execution, error) {
	exec, err := spec.Instantiate(in, s.cfg.Nodes, rng)
	if err != nil {
		return nil, nil, err
	}
	return s.Collect(exec, rng), exec, nil
}

// Collect samples an already-instantiated execution through the noise
// environment and returns its telemetry, each series a copy of the
// kernel's buffer.
func (s *Simulator) Collect(exec *apps.Execution, rng *rand.Rand) *telemetry.NodeSet {
	ns := telemetry.NewNodeSet()
	// Shared by every series; NewSeriesFromColumns drops it for the
	// implicit 1 Hz grid and copies it otherwise.
	var offs []time.Duration
	var sp Sampler
	s.Sample(exec, rng, &sp, func(metric string, node int, vals []float64) {
		if offs == nil {
			offs = make([]time.Duration, len(vals))
			for i := range offs {
				offs[i] = time.Duration(i) * s.cfg.Period
			}
		}
		ns.Put(telemetry.NewSeriesFromColumns(metric, node, offs, slices.Clone(vals)))
	})
	return ns
}

// Sampler is the per-worker state of the sampling kernel: its tables
// and its series buffer, reused from one execution to the next. The
// zero value is ready to use; a Sampler must not be used concurrently.
type Sampler struct {
	noise  noise.Tables
	ripple []float64
	growth []float64
	vals   []float64
}

// Sample draws the telemetry of an instantiated execution from rng:
// one sample every period from offset 0 to the execution's end, for
// every selected metric on every node. It hands each (metric, node)
// series to emit in catalog order, nodes ascending. vals is sp's
// buffer, valid only until emit returns; emit copies what it keeps.
func (s *Simulator) Sample(exec *apps.Execution, rng *rand.Rand, sp *Sampler, emit func(metric string, node int, vals []float64)) {
	n := int(exec.Duration()/s.cfg.Period) + 1
	// The initialization transient's height varies run to run: some
	// executions start more turbulently than others. This is the main
	// reason early windows make poor fingerprints (interval ablation).
	ampScale := 0.7 + 0.6*rng.Float64()
	prof := s.cfg.Noise
	prof.InitAmplitude *= ampScale
	sp.noise.Tabulate(prof, s.cfg.Period, n)
	sp.ripple = slices.Grow(sp.ripple[:0], n)[:n]
	sp.growth = slices.Grow(sp.growth[:0], n)[:n]
	sp.vals = slices.Grow(sp.vals[:0], n)[:n]
	vals := sp.vals
	mets := apps.Metrics()
	for _, mi := range s.metricIndexes {
		m := mets[mi]
		jitter := s.cfg.Noise.Jitter + m.JitterRel
		ripple, growth := exec.Shape(mi, s.cfg.Period, sp.ripple, sp.growth)
		for node := 0; node < exec.NumNodes; node++ {
			level := exec.Level(mi, node)
			for i := range vals {
				v := level
				if ripple != nil {
					v *= ripple[i]
				}
				if growth != nil {
					v *= growth[i]
				}
				vals[i] = v
			}
			if m.Kind == apps.KindConstant {
				// Node properties are immune to application noise.
				noise.PerturbProperty(rng, jitter, vals)
			} else {
				sp.noise.Perturb(rng, jitter, vals)
			}
			emit(m.Name, node, vals)
		}
	}
}
