package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/stats"
)

// TestFeedRunMatchesFeed pins the bulk columnar ingest to the
// per-sample path: feeding the same telemetry through FeedRun (in
// metric/node runs, as the server's batch handler does) must leave the
// stream in exactly the state Feed leaves it in — same accumulated
// means, same completion horizon, same recognition.
func TestFeedRunMatchesFeed(t *testing.T) {
	d, _ := NewDictionary(paperCfg(2))
	d.Learn(srcWith(2, apps.HeadlineMetric, 6000, 6000), apps.Label{App: "ft", Input: apps.InputX})

	rng := rand.New(rand.NewSource(21))
	secs := 130
	values := make([]float64, secs)
	for i := range values {
		values[i] = 6000 + 50*rng.NormFloat64()
	}

	one := NewStream(d, 2)
	bulk := NewStream(d, 2)
	offs := make([]time.Duration, secs)
	for i := range offs {
		offs[i] = time.Duration(i) * time.Second
	}
	for node := 0; node < 2; node++ {
		for i := 0; i < secs; i++ {
			one.Feed(apps.HeadlineMetric, node, offs[i], values[i])
		}
		bulk.FeedRun(apps.HeadlineMetric, node, offs, values)
	}
	// Runs for unconfigured metrics and out-of-range nodes are ignored
	// but still advance the horizon, like Feed.
	one.Feed("other_metric", 0, time.Duration(secs)*time.Second, 1)
	bulk.FeedRun("other_metric", 0, []time.Duration{time.Duration(secs) * time.Second}, []float64{1})
	one.Feed(apps.HeadlineMetric, 9, 0, 1)
	bulk.FeedRun(apps.HeadlineMetric, 9, []time.Duration{0}, []float64{1})

	if one.Complete() != bulk.Complete() {
		t.Fatalf("Complete: Feed %v vs FeedRun %v", one.Complete(), bulk.Complete())
	}
	for _, w := range d.cfg.Windows {
		for node := 0; node < 2; node++ {
			a, aok := one.WindowMean(apps.HeadlineMetric, node, w)
			b, bok := bulk.WindowMean(apps.HeadlineMetric, node, w)
			if aok != bok || a != b {
				t.Errorf("window %v node %d: Feed (%v,%v) vs FeedRun (%v,%v)", w, node, a, aok, b, bok)
			}
		}
	}
	ra, rb := one.Recognize(), bulk.Recognize()
	if ra.Top() != rb.Top() || ra.Matched != rb.Matched || ra.Total != rb.Total {
		t.Errorf("recognition differs: Feed %+v vs FeedRun %+v", ra, rb)
	}
}

// TestFeedRunWarmAllocFree pins the warmed bulk-ingest path at zero
// allocations per run, the property the server's ingest relies on.
func TestFeedRunWarmAllocFree(t *testing.T) {
	d, _ := NewDictionary(paperCfg(2))
	d.Learn(srcWith(1, apps.HeadlineMetric, 6000), apps.Label{App: "ft", Input: apps.InputX})
	s := NewStream(d, 1)
	offs := make([]time.Duration, 64)
	vals := make([]float64, 64)
	for i := range offs {
		offs[i] = time.Duration(60+i) * time.Second
		vals[i] = 6000
	}
	s.FeedRun(apps.HeadlineMetric, 0, offs, vals) // warm the accumulators
	allocs := testing.AllocsPerRun(100, func() {
		s.FeedRun(apps.HeadlineMetric, 0, offs, vals)
	})
	if allocs != 0 {
		t.Errorf("warmed FeedRun = %v allocs/op, want 0", allocs)
	}
}

// Feed delivers one sample. Samples outside every configured window,
// for unconfigured metrics, or for out-of-range nodes are ignored, so
// the monitor can blindly forward its full stream.
//
//efd:hotpath
func (s *Stream) Feed(metric string, node int, offset time.Duration, value float64) {
	if offset > s.seen {
		s.seen = offset
	}
	if node < 0 || node >= s.nodes {
		return
	}
	configured := false
	for _, m := range s.dict.cfg.Metrics {
		if m == metric {
			configured = true
			break
		}
	}
	if !configured {
		return
	}
	for _, w := range s.dict.cfg.Windows {
		if !w.Contains(offset) {
			continue
		}
		k := streamKey{metric: metric, node: node, window: w}
		acc, ok := s.acc[k]
		if !ok {
			acc = &stats.Online{}
			s.acc[k] = acc
		}
		acc.Add(value)
	}
}
