package telemetry

import (
	"fmt"
	"sort"
	"time"
)

// NodeSet holds the telemetry of one execution: for every participating
// node, a set of metric series. It is the unit the recognizer consumes.
type NodeSet struct {
	// series is indexed by node, then by metric name.
	series map[int]map[string]*Series
}

// NewNodeSet returns an empty NodeSet.
func NewNodeSet() *NodeSet {
	return &NodeSet{series: make(map[int]map[string]*Series)}
}

// Put stores a series, replacing any existing series for the same
// (node, metric) pair.
func (ns *NodeSet) Put(s *Series) {
	m, ok := ns.series[s.Node]
	if !ok {
		m = make(map[string]*Series)
		ns.series[s.Node] = m
	}
	m[s.Metric] = s
}

// Get returns the series for (node, metric), or nil when absent.
func (ns *NodeSet) Get(node int, metric string) *Series {
	m, ok := ns.series[node]
	if !ok {
		return nil
	}
	return m[metric]
}

// Nodes returns the sorted node IDs present in the set.
func (ns *NodeSet) Nodes() []int {
	out := make([]int, 0, len(ns.series))
	for n := range ns.series {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// Metrics returns the sorted union of metric names across all nodes.
func (ns *NodeSet) Metrics() []string {
	seen := make(map[string]bool)
	for _, m := range ns.series {
		for name := range m {
			seen[name] = true
		}
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// NumSeries reports the total number of stored series.
func (ns *NodeSet) NumSeries() int {
	n := 0
	for _, m := range ns.series {
		n += len(m)
	}
	return n
}

// Duration reports the longest series duration in the set.
func (ns *NodeSet) Duration() time.Duration {
	var d time.Duration
	for _, m := range ns.series {
		for _, s := range m {
			if sd := s.Duration(); sd > d {
				d = sd
			}
		}
	}
	return d
}

// Validate checks every series in the set and also verifies that all
// nodes expose the same metric names, which the dataset format
// guarantees and the recognizer assumes.
//
//efd:keep well-formedness oracle: the telemetry, cluster and ldms tests check simulated and parsed telemetry with it
func (ns *NodeSet) Validate() error {
	var ref []string
	for _, node := range ns.Nodes() {
		m := ns.series[node]
		names := make([]string, 0, len(m))
		for name, s := range m {
			if err := s.Validate(); err != nil {
				return err
			}
			if s.Node != node {
				return fmt.Errorf("telemetry: series %s filed under node %d but labelled %d",
					name, node, s.Node)
			}
			if s.Metric != name {
				return fmt.Errorf("telemetry: series filed under %q but labelled %q",
					name, s.Metric)
			}
			names = append(names, name)
		}
		sort.Strings(names)
		if ref == nil {
			ref = names
			continue
		}
		if len(names) != len(ref) {
			return fmt.Errorf("telemetry: node %d has %d metrics, expected %d",
				node, len(names), len(ref))
		}
		for i := range names {
			if names[i] != ref[i] {
				return fmt.Errorf("telemetry: node %d metric set differs at %q", node, names[i])
			}
		}
	}
	return nil
}
