package ldms

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/apps"
	"repro/internal/telemetry"
)

// The sampler/collector simulation below generates the telemetry the
// CSV tests write and read back: samplers own metric sets, and a
// collector drives them at a fixed period across all nodes of a job.

// ValueSource provides observed (already noise-perturbed) metric values
// for a running execution. The cluster simulator provides one; a replay
// of recorded telemetry can provide another.
type ValueSource interface {
	// Value returns the observed value of the metric on the node at
	// offset t from execution start.
	Value(metric string, node int, t time.Duration) float64
}

// Measurement is one sampled metric value.
type Measurement struct {
	Metric string
	Value  float64
}

// Sampler samples one metric set on demand, like an LDMS sampler
// plugin.
type Sampler interface {
	// Name identifies the sampler ("vmstat", "meminfo",
	// "metric_set_nic").
	Name() string
	// Metrics lists the metric names the sampler produces.
	Metrics() []string
	// Sample reads all metrics of the set on the node at offset t.
	Sample(src ValueSource, node int, t time.Duration) []Measurement
}

// setSampler samples a fixed list of metrics from a ValueSource.
type setSampler struct {
	name    string
	metrics []string
}

func (s *setSampler) Name() string { return s.name }

func (s *setSampler) Metrics() []string {
	out := make([]string, len(s.metrics))
	copy(out, s.metrics)
	return out
}

func (s *setSampler) Sample(src ValueSource, node int, t time.Duration) []Measurement {
	out := make([]Measurement, len(s.metrics))
	for i, m := range s.metrics {
		out[i] = Measurement{Metric: m, Value: src.Value(m, node, t)}
	}
	return out
}

// NewSampler builds a sampler over an explicit metric list.
func NewSampler(name string, metrics []string) (Sampler, error) {
	if len(metrics) == 0 {
		return nil, fmt.Errorf("ldms: sampler %q has no metrics", name)
	}
	return &setSampler{name: name, metrics: metrics}, nil
}

// CatalogSamplers groups the full metric catalog into its three LDMS
// metric sets, matching the sets of the Taxonomist dataset.
func CatalogSamplers() []Sampler {
	bySet := make(map[string][]string)
	for _, m := range apps.Metrics() {
		bySet[m.Set] = append(bySet[m.Set], m.Name)
	}
	sets := make([]string, 0, len(bySet))
	for s := range bySet {
		sets = append(sets, s)
	}
	sort.Strings(sets)
	out := make([]Sampler, 0, len(sets))
	for _, s := range sets {
		names := bySet[s]
		sort.Strings(names)
		out = append(out, &setSampler{name: s, metrics: names})
	}
	return out
}

// Collector drives samplers across the nodes of a job at a fixed
// period, assembling a telemetry NodeSet — the role of the LDMS
// aggregator.
type Collector struct {
	Samplers []Sampler
	// Period is the sampling interval (default 1 s).
	Period time.Duration
}

// NewCollector returns a collector over the given samplers.
func NewCollector(samplers []Sampler, period time.Duration) (*Collector, error) {
	if len(samplers) == 0 {
		return nil, fmt.Errorf("ldms: collector needs at least one sampler")
	}
	if period <= 0 {
		period = telemetry.DefaultPeriod
	}
	seen := make(map[string]string)
	for _, s := range samplers {
		for _, m := range s.Metrics() {
			if prev, dup := seen[m]; dup {
				return nil, fmt.Errorf("ldms: metric %q provided by both %q and %q",
					m, prev, s.Name())
			}
			seen[m] = s.Name()
		}
	}
	return &Collector{Samplers: samplers, Period: period}, nil
}

// Collect samples all metric sets on nodes [0, nodes) from t=0 through
// duration (inclusive of the final tick) and returns the telemetry.
func (c *Collector) Collect(src ValueSource, nodes int, duration time.Duration) (*telemetry.NodeSet, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("ldms: non-positive node count %d", nodes)
	}
	if duration < 0 {
		return nil, fmt.Errorf("ldms: negative duration %v", duration)
	}
	ns := telemetry.NewNodeSet()
	ticks := int(duration/c.Period) + 1
	for _, s := range c.Samplers {
		for node := 0; node < nodes; node++ {
			series := make(map[string]*telemetry.Series, len(s.Metrics()))
			for _, m := range s.Metrics() {
				series[m] = telemetry.NewSeries(m, node, ticks)
			}
			for i := 0; i < ticks; i++ {
				t := time.Duration(i) * c.Period
				for _, meas := range s.Sample(src, node, t) {
					series[meas.Metric].Append(t, meas.Value)
				}
			}
			for _, sr := range series {
				ns.Put(sr)
			}
		}
	}
	return ns, nil
}
