package core

import (
	"strings"

	"repro/internal/stats"
	"repro/internal/telemetry"
)

// NewFingerprint builds a single-metric fingerprint from a raw
// (unrounded) mean by applying the given rounding depth.
func NewFingerprint(metric string, node int, w telemetry.Window, rawMean float64, depth int) Fingerprint {
	return Fingerprint{
		Metric: metric,
		Node:   node,
		Window: w.String(),
		Key:    stats.FormatKey(stats.RoundDepth(rawMean, depth)),
	}
}

// Extract builds all fingerprints of the source under the
// configuration. Nodes whose telemetry does not cover a window simply
// contribute no fingerprint for it; in Joint mode a missing component
// suppresses the whole composite key.
func Extract(src WindowSource, cfg Config) []Fingerprint {
	return ExtractInto(nil, src, cfg)
}

// ExtractInto appends all fingerprints of the source under the
// configuration to dst and returns the extended slice, reusing dst's
// capacity. Streaming and batch callers that recognize many executions
// can pass the previous call's slice (re-sliced to length zero) to
// avoid re-allocating the fingerprint array; window key strings are
// computed once per call rather than once per (metric, node) probe.
//
// Note that recognition itself does not go through Fingerprint
// construction at all — Dictionary.Recognize and Recognizer extract
// interned keys into byte buffers instead. ExtractInto is the public
// boundary for callers that want the fingerprints themselves; it
// renders the same extraction walk (extractRawInto) the interned paths
// consume, so order and keys never diverge between the two forms.
func ExtractInto(dst []Fingerprint, src WindowSource, cfg Config) []Fingerprint {
	winKeys := make([]string, len(cfg.Windows))
	for i, w := range cfg.Windows {
		winKeys[i] = w.Key()
	}
	var re rawExec
	extractRawInto(&re, src, cfg.Metrics, cfg.Windows, cfg.Joint)
	jointMetric := ""
	if cfg.Joint {
		jointMetric = strings.Join(cfg.Metrics, "+")
	}
	var buf []byte
	for _, fp := range re.fps {
		buf = buf[:0]
		for c := int32(0); c < fp.n; c++ {
			if c > 0 {
				buf = append(buf, '|')
			}
			buf = stats.AppendRoundedKey(buf, re.means[fp.off+c], cfg.Depth)
		}
		metric := jointMetric
		if !cfg.Joint {
			metric = cfg.Metrics[fp.metric]
		}
		dst = append(dst, Fingerprint{
			Metric: metric,
			Node:   int(fp.node),
			Window: winKeys[fp.window],
			Key:    string(buf),
		})
	}
	return dst
}
