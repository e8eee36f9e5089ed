package core

import (
	"time"

	"repro/internal/telemetry"
)

// TelemetrySource adapts raw telemetry (a NodeSet of 1 Hz series) to
// the WindowSource interface, optionally shifting every window by a
// fixed offset. It lets the recognizer operate directly on collected
// series — and, with non-zero shifts, probe alternative alignments of
// the execution's start time.
type TelemetrySource struct {
	NS *telemetry.NodeSet
	// Shift is added to both window bounds before slicing, so a
	// positive shift looks later into the telemetry. Windows shifted
	// below zero yield no mean.
	Shift time.Duration

	nodes []int
}

// NewTelemetrySource wraps raw telemetry for recognition.
func NewTelemetrySource(ns *telemetry.NodeSet) *TelemetrySource {
	return &TelemetrySource{NS: ns, nodes: ns.Nodes()}
}

// WindowMean implements WindowSource over the raw series.
func (t *TelemetrySource) WindowMean(metric string, node int, w telemetry.Window) (float64, bool) {
	s := t.NS.Get(node, metric)
	if s == nil {
		return 0, false
	}
	w.Start += t.Shift
	w.End += t.Shift
	if w.Start < 0 || !w.Valid() {
		return 0, false
	}
	mean, err := s.WindowMean(w)
	if err != nil {
		return 0, false
	}
	return mean, true
}

// NodeCount implements WindowSource.
func (t *TelemetrySource) NodeCount() int {
	if len(t.nodes) == 0 {
		return 0
	}
	return t.nodes[len(t.nodes)-1] + 1
}
