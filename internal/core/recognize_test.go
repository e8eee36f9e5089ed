package core

import (
	"repro/internal/apps"
)

// InputCount returns the match count of one full (application, input)
// label without allocating, for input-size estimation.
func (r Result) InputCount(label apps.Label) int {
	if r.d == nil {
		return 0
	}
	lid, ok := r.d.labelIDs[label]
	if !ok || int(lid) >= len(r.inputs) {
		return 0
	}
	return int(r.inputs[lid])
}

// Inputs materializes the per-label match counts as a map (labels with
// zero matches are absent). Each call allocates; hot paths should use
// InputCount.
func (r Result) Inputs() map[apps.Label]int {
	out := make(map[apps.Label]int)
	if r.d == nil {
		return out
	}
	for lid, v := range r.inputs {
		if v != 0 {
			out[r.d.labels[lid]] = int(v)
		}
	}
	return out
}

// RecognizeWeighted is a variant of Recognize in which each matched key
// contributes its per-application observation count rather than a
// single vote, so frequently repeated fingerprints outweigh one-off
// noise keys. This is an extension beyond the paper (which votes
// uniformly); the voting ablation compares the two.
//
//efd:hotpath
func (r *Recognizer) RecognizeWeighted(src WindowSource) Result {
	r.extract(src)
	return r.vote(true)
}

// RecognizeWeighted is the count-weighted voting variant of Recognize;
// see Recognizer.RecognizeWeighted.
func (d *Dictionary) RecognizeWeighted(src WindowSource) Result {
	r := Recognizer{d: d}
	return r.RecognizeWeighted(src)
}
