package core

import (
	"fmt"
	"sort"

	"repro/internal/apps"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/par"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Source adapts a dataset execution to the WindowSource interface.
func Source(e *dataset.Execution) WindowSource { return execSource{e} }

type execSource struct{ e *dataset.Execution }

func (s execSource) WindowMean(metric string, node int, w telemetry.Window) (float64, bool) {
	return s.e.WindowMean(metric, node, w)
}

func (s execSource) NodeCount() int { return s.e.NumNodes }

// FitConfig controls dictionary training. Rounding depth is the EFD's
// only tunable parameter; Fit selects it by cross-validation within the
// training set, exactly as the paper prescribes.
type FitConfig struct {
	// Metrics and Windows select the fingerprints (see Config).
	Metrics []string
	Windows []telemetry.Window
	// Joint combines all metrics into composite keys (see Config).
	Joint bool
	// Depths are the candidate rounding depths; nil tries 1 through 6.
	Depths []int
	// InnerFolds is the fold count of the internal cross-validation
	// (default 5, reduced automatically when classes are small).
	InnerFolds int
	// Seed drives the internal fold shuffling.
	Seed int64
	// Workers bounds the worker pool of the depth×fold
	// cross-validation grid: 0 means GOMAXPROCS, 1 runs sequentially.
	// The selected depth, the report, and the resulting dictionary are
	// byte-identical at every worker count — parallelism only changes
	// wall-clock time.
	Workers int
}

// DefaultFitConfig returns the paper's headline setting: the single
// metric nr_mapped_vmstat over [60:120], depths 1–6, 5 inner folds.
func DefaultFitConfig() FitConfig {
	base := DefaultConfig(1)
	return FitConfig{Metrics: base.Metrics, Windows: base.Windows, InnerFolds: 5, Seed: 1}
}

// FitReport describes how the rounding depth was chosen.
type FitReport struct {
	// BestDepth is the selected rounding depth.
	BestDepth int
	// DepthScores maps each candidate depth to its cross-validated
	// macro F1 on the training set.
	DepthScores map[int]float64
	// Folds is the inner fold count actually used (0 when the
	// training set was too small for cross-validation and the median
	// candidate depth was used instead).
	Folds int
}

// rawFP locates one fingerprint's unrounded mean component(s) inside a
// rawExec: the raw means are extracted from the dataset once and
// re-rounded per candidate depth, instead of re-walking the dataset for
// every depth of the cross-validation grid.
type rawFP struct {
	metric int32 // index into cfg.Metrics (unused for joint keys)
	node   int32
	window int32 // index into cfg.Windows
	off    int32 // offset into rawExec.means
	n      int32 // component count (1 unless joint)
}

// rawExec is the depth-independent extraction of one execution.
type rawExec struct {
	fps   []rawFP
	means []float64
}

// extractRaw walks the source once and records every available raw
// window mean.
func extractRaw(src WindowSource, metrics []string, windows []telemetry.Window, joint bool) rawExec {
	var re rawExec
	extractRawInto(&re, src, metrics, windows, joint)
	return re
}

// extractRawInto is extractRaw with reused buffers. It is the single
// extraction walk of the package: Learn, the Recognizer, and the Fit
// grid all consume its output, so iteration order — and therefore learning/tie-break order
// — cannot drift between paths.
func extractRawInto(re *rawExec, src WindowSource, metrics []string, windows []telemetry.Window, joint bool) {
	re.fps = re.fps[:0]
	re.means = re.means[:0]
	nodes := src.NodeCount()
	if joint {
		for node := 0; node < nodes; node++ {
			for wi, w := range windows {
				off := len(re.means)
				ok := true
				for _, metric := range metrics {
					mean, have := src.WindowMean(metric, node, w)
					if !have {
						ok = false
						break
					}
					re.means = append(re.means, mean)
				}
				if !ok {
					re.means = re.means[:off]
					continue
				}
				re.fps = append(re.fps, rawFP{
					node: int32(node), window: int32(wi),
					off: int32(off), n: int32(len(metrics)),
				})
			}
		}
		return
	}
	for mi, metric := range metrics {
		for node := 0; node < nodes; node++ {
			for wi, w := range windows {
				mean, have := src.WindowMean(metric, node, w)
				if !have {
					continue
				}
				re.fps = append(re.fps, rawFP{
					metric: int32(mi), node: int32(node), window: int32(wi),
					off: int32(len(re.means)), n: 1,
				})
				re.means = append(re.means, mean)
			}
		}
	}
}

// keysFromRaw renders the raw means of re into canonical key bytes at
// the dictionary's rounding depth, producing exactly the keys
// extractKeys would have produced from the original source.
func (d *Dictionary) keysFromRaw(ks *keySet, re rawExec) {
	ks.buf = ks.buf[:0]
	ks.refs = ks.refs[:0]
	depth := d.cfg.Depth
	for _, fp := range re.fps {
		start := len(ks.buf)
		for c := int32(0); c < fp.n; c++ {
			if c > 0 {
				ks.buf = append(ks.buf, '|')
			}
			ks.buf = stats.AppendRoundedKey(ks.buf, re.means[fp.off+c], depth)
		}
		metric := d.planJoint
		if !d.cfg.Joint {
			metric = d.planMetrics[fp.metric]
		}
		ks.refs = append(ks.refs, keyRef{
			bk:  bucketKey{metric: metric, window: d.planWindows[fp.window], node: fp.node},
			off: int32(start), end: int32(len(ks.buf)),
		})
	}
}

// learnRaw inserts the raw extraction of one labelled execution,
// re-rounded at the dictionary's depth, through the reused key buffer.
func (d *Dictionary) learnRaw(re rawExec, label apps.Label, ks *keySet) {
	d.keysFromRaw(ks, re)
	for _, ref := range ks.refs {
		d.addKeyBytes(ref.bk, ks.buf[ref.off:ref.end], label, 1)
	}
}

// recognizeRaw recognizes a raw extraction at the dictionary's depth.
func (r *Recognizer) recognizeRaw(re rawExec) Result {
	r.d.keysFromRaw(&r.ks, re)
	return r.vote(false)
}

// Fit learns a dictionary from the training set, selecting the rounding
// depth by stratified cross-validation within the training set, then
// building the final dictionary at the chosen depth over all training
// executions.
//
// The depth×fold grid runs on a bounded worker pool (FitConfig.Workers)
// and each execution's raw window means are extracted once and
// re-rounded per candidate depth. Assembly is deterministic: the
// report, scores, and dictionary are byte-identical to a sequential
// run.
func Fit(train *dataset.Dataset, cfg FitConfig) (*Dictionary, FitReport, error) {
	if train.Len() == 0 {
		return nil, FitReport{}, fmt.Errorf("core: empty training set")
	}
	depths := cfg.Depths
	if depths == nil {
		depths = []int{1, 2, 3, 4, 5, 6}
	}
	folds := cfg.InnerFolds
	if folds <= 0 {
		folds = 5
	}
	// Clamp the fold count to the smallest class size so stratified
	// folding stays possible on small training sets.
	minClass := train.Len()
	counts := make(map[string]int)
	for _, e := range train.Executions {
		counts[e.Label.String()]++
	}
	for _, c := range counts {
		if c < minClass {
			minClass = c
		}
	}
	if folds > minClass {
		folds = minClass
	}

	report := FitReport{DepthScores: make(map[int]float64), Folds: folds}
	if folds < 2 {
		// Too small to cross-validate: fall back to the median
		// candidate depth.
		report.Folds = 0
		report.BestDepth = depths[len(depths)/2]
	} else {
		kf, err := train.KFold(folds, cfg.Seed)
		if err != nil {
			return nil, FitReport{}, err
		}
		// Validate the fingerprint configuration once, up front, so
		// grid workers cannot race on reporting the same error.
		if err := (Config{Metrics: cfg.Metrics, Windows: cfg.Windows, Depth: depths[0], Joint: cfg.Joint}).Validate(); err != nil {
			return nil, FitReport{}, err
		}
		// Extract each execution's raw means exactly once.
		raws := make([]rawExec, train.Len())
		par.For(train.Len(), cfg.Workers, func(i int) {
			raws[i] = extractRaw(Source(train.Executions[i]), cfg.Metrics, cfg.Windows, cfg.Joint)
		})
		// Per-fold training order: ascending execution ID, matching
		// build(), so per-fold dictionaries are identical to the ones
		// the sequential path constructed.
		trainOrder := make([][]int, len(kf))
		for fi, fold := range kf {
			idx := append([]int(nil), fold.Train...)
			sort.Slice(idx, func(a, b int) bool {
				return train.Executions[idx[a]].ID < train.Executions[idx[b]].ID
			})
			trainOrder[fi] = idx
		}
		// The grid: one task per (depth, fold) cell, results written
		// into task-indexed slots and assembled in depth-major order
		// below, so scores never depend on scheduling.
		nf := len(kf)
		cells := make([][]eval.Pair, len(depths)*nf)
		errs := make([]error, len(cells))
		par.For(len(cells), cfg.Workers, func(t int) {
			di, fi := t/nf, t%nf
			d, err := NewDictionary(Config{Metrics: cfg.Metrics, Windows: cfg.Windows, Depth: depths[di], Joint: cfg.Joint})
			if err != nil {
				errs[t] = err
				return
			}
			var ks keySet
			for _, i := range trainOrder[fi] {
				d.learnRaw(raws[i], train.Executions[i].Label, &ks)
			}
			rec := d.NewRecognizer()
			pairs := make([]eval.Pair, len(kf[fi].Test))
			for pi, i := range kf[fi].Test {
				pairs[pi] = eval.Pair{
					Truth: train.Executions[i].Label.App,
					Pred:  rec.recognizeRaw(raws[i]).Top(),
				}
			}
			cells[t] = pairs
		})
		for _, err := range errs {
			if err != nil {
				return nil, FitReport{}, err
			}
		}
		bestScore := -1.0
		var pooled []eval.Pair
		for di, depth := range depths {
			pooled = pooled[:0]
			for fi := 0; fi < nf; fi++ {
				pooled = append(pooled, cells[di*nf+fi]...)
			}
			score := eval.F1Macro(pooled)
			report.DepthScores[depth] = score
			// Strict improvement keeps the tie-break at the smaller
			// (more pruned, more general) depth.
			if score > bestScore {
				bestScore = score
				report.BestDepth = depth
			}
		}
	}

	d, err := build(train, cfg, report.BestDepth)
	if err != nil {
		return nil, FitReport{}, err
	}
	return d, report, nil
}

// build constructs a dictionary over the whole dataset at a fixed
// depth, learning executions in a deterministic order.
func build(ds *dataset.Dataset, cfg FitConfig, depth int) (*Dictionary, error) {
	d, err := NewDictionary(Config{Metrics: cfg.Metrics, Windows: cfg.Windows, Depth: depth, Joint: cfg.Joint})
	if err != nil {
		return nil, err
	}
	execs := make([]*dataset.Execution, len(ds.Executions))
	copy(execs, ds.Executions)
	sort.Slice(execs, func(i, j int) bool { return execs[i].ID < execs[j].ID })
	for _, e := range execs {
		d.Learn(Source(e), e.Label)
	}
	return d, nil
}

// Build constructs a dictionary over the dataset at a fixed rounding
// depth without any tuning, for callers that already know the depth
// (e.g. the Table 4 example uses depth 2).
func Build(ds *dataset.Dataset, cfg Config) (*Dictionary, error) {
	return build(ds, FitConfig{Metrics: cfg.Metrics, Windows: cfg.Windows, Joint: cfg.Joint}, cfg.Depth)
}

// Classify recognizes every execution of the dataset and pairs the
// predicted application with the ground-truth application name. The
// correctness criterion follows the paper: only the application name is
// compared, so returning ft for an ft execution with a different input
// size is correct.
//
// Executions are evaluated concurrently in contiguous chunks (one
// reused Recognizer per chunk) on up to GOMAXPROCS goroutines; the
// returned pair order is the dataset order regardless of scheduling.
// Use ClassifyWorkers to bound (or serialize) the pool.
func Classify(d *Dictionary, ds *dataset.Dataset) []eval.Pair {
	return ClassifyWorkers(d, ds, 0)
}

// ClassifyWorkers is Classify with an explicit worker bound: 0 means
// GOMAXPROCS, 1 runs single-threaded (profiling, or embedding inside
// an already-parallel caller). The pair order is identical at every
// worker count.
func ClassifyWorkers(d *Dictionary, ds *dataset.Dataset, workers int) []eval.Pair {
	pairs := make([]eval.Pair, ds.Len())
	par.Chunks(ds.Len(), workers, 16, func(lo, hi int) {
		rec := d.NewRecognizer()
		for i := lo; i < hi; i++ {
			e := ds.Executions[i]
			pairs[i] = eval.Pair{Truth: e.Label.App, Pred: rec.Recognize(Source(e)).Top()}
		}
	})
	return pairs
}
