package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/efd/client"
	"repro/efd/monitor"
	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/noise"
)

// workload is one online traffic mix against a real efdd.
type workload struct {
	name string
	// durable runs efdd with -data-dir and streams the full simulated
	// metric catalog as binary IngestRuns; otherwise efdd is
	// memory-only and the jobs send the headline metric alone as
	// row-form JSON IngestBatches.
	durable bool
	// jobs is the number of live jobs, split evenly across the
	// connections.
	jobs int
	// polls is how many times each live job past 60 s is polled per
	// tick.
	polls int
	// recognizeEvery re-recognizes every n-th labelled job from
	// storage (0: never).
	recognizeEvery int
}

var workloads = map[string]workload{
	// Forwarder load: the wire, engine feed, WAL append, group-commit
	// fsync, segment flush and mmap reads do most of the work, and
	// recognition very little (about 1% of the samples land in the
	// fingerprint).
	"ingest-binary-durable": {name: "ingest-binary-durable", durable: true, jobs: 16, recognizeEvery: 4},
	// Recognition polling in the paper's single-metric deployment: the
	// HTTP adapter, Result, dictionary locking and the JSON decoder do
	// the work, and the store none.
	"poll-json-memory": {name: "poll-json-memory", jobs: 32, polls: 3},
}

const (
	conns        = 2   // client connections, one closed-loop worker each
	jobNodes     = 4   // nodes per simulated job
	jobSeconds   = 131 // simulated seconds each job streams
	chunkSeconds = 10  // simulated seconds per job in one ingest request
	pollFromSec  = 60  // jobs are polled once this much telemetry was sent
	// storedLag is how many labels back a stored re-recognition
	// reaches, so that it reads an execution already flushed to a
	// segment (mmap) rather than one still pending in memory.
	storedLag = 40
	// minAccuracy is the share of final answers that must name the
	// true application (the paper reports F > 0.95).
	minAccuracy = 0.95
)

const (
	faultDropBatch  = "drop-batch"
	faultWrongLabel = "wrong-label"
)

// size scales a run; tinySize keeps smoke tests short.
type size struct {
	trainRepeats   int // training-grid repeats per label
	setupRounds    int // set-ups per run; setup_s is their median
	figure2Repeats int // Figure 2 grid repeats per label (-quick: 10)
	figure2Iters   int // Figure 2 reproductions per run
	replaySeconds  float64
}

var (
	fullSize = size{trainRepeats: 10, setupRounds: 5, figure2Repeats: 10, figure2Iters: 3, replaySeconds: 1.5}
	tinySize = size{trainRepeats: 4, setupRounds: 1, figure2Repeats: 5, figure2Iters: 2, replaySeconds: 0.2}
)

// poolExec is one simulated execution whose first jobSeconds of
// telemetry are replayed as live jobs, pre-cut into ingest chunks.
type poolExec struct {
	label   apps.Label
	runs    [][]monitor.Run    // per chunk, columnar
	samples [][]monitor.Sample // per chunk, row form (JSON workloads only)
	count   []int              // samples per chunk
	useful  []int              // samples per chunk the fingerprint uses
}

func numChunks() int { return (jobSeconds + chunkSeconds - 1) / chunkSeconds }

// simulatePool runs one execution per (application, input) label on
// the simulated cluster, from seeds disjoint from the training grid's.
func simulatePool(seed int64, fullCatalog bool, dictCfg core.Config) ([]*poolExec, error) {
	ccfg := cluster.Config{Nodes: jobNodes, Noise: noise.DefaultProfile()}
	if !fullCatalog {
		ccfg.Metrics = []string{apps.HeadlineMetric}
	}
	sim, err := cluster.New(ccfg)
	if err != nil {
		return nil, err
	}
	offs := make([]time.Duration, jobSeconds)
	for i := range offs {
		offs[i] = time.Duration(i) * time.Second
	}
	useful := func(metric string, off time.Duration) bool {
		for _, m := range dictCfg.Metrics {
			if m != metric {
				continue
			}
			for _, w := range dictCfg.Windows {
				if w.Contains(off) {
					return true
				}
			}
		}
		return false
	}
	var pool []*poolExec
	for _, spec := range apps.Catalog() {
		for _, in := range spec.Inputs {
			rng := rand.New(rand.NewSource(seed*1_000_003 + 500_000_000 + int64(len(pool))*7919))
			ns, _, err := sim.Run(spec, in, rng)
			if err != nil {
				return nil, err
			}
			pe := &poolExec{label: apps.Label{App: spec.Name, Input: in}}
			for c := 0; c < numChunks(); c++ {
				lo, hi := c*chunkSeconds, min((c+1)*chunkSeconds, jobSeconds)
				var runs []monitor.Run
				var rows []monitor.Sample
				n, u := 0, 0
				for _, metric := range ns.Metrics() {
					for _, node := range ns.Nodes() {
						s := ns.Get(node, metric)
						if s == nil || s.Len() < jobSeconds {
							return nil, fmt.Errorf("simulated %s telemetry is shorter than %d s", pe.label, jobSeconds)
						}
						vals := s.ValuesView()[lo:hi]
						runs = append(runs, monitor.Run{Metric: metric, Node: node, Offsets: offs[lo:hi], Values: vals})
						for i, v := range vals {
							rows = append(rows, monitor.Sample{Metric: metric, Node: node, OffsetS: float64(lo + i), Value: v})
							if useful(metric, offs[lo+i]) {
								u++
							}
						}
						n += len(vals)
					}
				}
				if fullCatalog {
					rows = nil // the binary workload never sends rows
				}
				pe.runs = append(pe.runs, runs)
				pe.samples = append(pe.samples, rows)
				pe.count = append(pe.count, n)
				pe.useful = append(pe.useful, u)
			}
			pool = append(pool, pe)
		}
	}
	return pool, nil
}

// onlineEnv is what set-up leaves for the online phases.
type onlineEnv struct {
	w        workload
	o        options
	sz       size
	dir      string
	dictPath string
	dictCfg  core.Config
	pool     []*poolExec
	d        *daemon // started by the last set-up round
	dataDirs int
}

// newDataDir returns a fresh efdd data directory, or "" for a
// memory-only workload.
func (env *onlineEnv) newDataDir() (string, error) {
	if !env.w.durable {
		return "", nil
	}
	env.dataDirs++
	p := filepath.Join(env.dir, fmt.Sprintf("data-%d", env.dataDirs))
	return p, os.Mkdir(p, 0o755)
}

func (env *onlineEnv) startDaemon(ctx context.Context) (*daemon, error) {
	dataDir, err := env.newDataDir()
	if err != nil {
		return nil, err
	}
	return startDaemon(ctx, env.o.efdd, env.dictPath, dataDir)
}

// setupOnline generates the training grid, fits and saves the
// dictionary, simulates the replay pool and starts efdd until
// /v1/health answers — sz.setupRounds times. setup_s is the median CPU
// time of a set-up, the benchmark's and efdd's together: on a shared
// host the wall time of this CPU-bound work follows the CPU the
// hypervisor steals, the CPU time does not. The daemon of the last
// round serves the run.
func setupOnline(ctx context.Context, w workload, o options, sz size, dir string, rep *report) (*onlineEnv, error) {
	env := &onlineEnv{w: w, o: o, sz: sz, dir: dir, dictPath: filepath.Join(dir, "dict.json")}
	var cpu, walls []float64
	for round := 0; round < sz.setupRounds; round++ {
		if env.d != nil {
			if err := env.d.stop(); err != nil {
				return nil, err
			}
			env.d = nil
		}
		t0, c0 := time.Now(), selfCPU()
		cfg := dataset.DefaultGenConfig()
		cfg.Cluster.Metrics = []string{apps.HeadlineMetric}
		cfg.Repeats = sz.trainRepeats
		cfg.Seed = o.seed
		ds, err := dataset.Generate(cfg)
		if err != nil {
			return nil, fmt.Errorf("training grid: %w", err)
		}
		dict, _, err := core.Fit(ds, core.DefaultFitConfig())
		if err != nil {
			return nil, fmt.Errorf("fit: %w", err)
		}
		if err := saveDict(dict, env.dictPath); err != nil {
			return nil, err
		}
		env.dictCfg = dict.Config()
		env.pool, err = simulatePool(o.seed, w.durable, env.dictCfg)
		if err != nil {
			return nil, fmt.Errorf("replay pool: %w", err)
		}
		env.d, err = env.startDaemon(ctx)
		if err != nil {
			return nil, err
		}
		cpu = append(cpu, selfCPU()-c0+env.d.cpuSeconds())
		walls = append(walls, time.Since(t0).Seconds())
		if round == sz.setupRounds-1 {
			rep.note("training grid: %d executions, dictionary depth %d, %d keys; replay pool: %d executions", ds.Len(), dict.Config().Depth, dict.Len(), len(env.pool))
		}
	}
	rep.set("setup_s", median(cpu))
	rep.note("setup_s: median CPU seconds (benchmark and efdd) of %d set-ups %v; their wall seconds %v", len(cpu), roundAll(cpu, 4), roundAll(walls, 4))
	return env, nil
}

func saveDict(d *core.Dictionary, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.Save(f); err != nil {
		f.Close()
		return fmt.Errorf("save dictionary: %w", err)
	}
	return f.Close()
}

// opKind names the client operations a phase issues.
type opKind int

const (
	opRegister opKind = iota
	opIngest
	opResult
	opLabel
	opClose
	opStored
	numOps
)

var opNames = [numOps]string{"register", "ingest", "result", "label", "close", "stored_result"}

// op is one recorded client call of a traced phase, the input of the
// layered replay.
type op struct {
	kind  opKind
	start time.Time
	job   string
	app   string     // label
	input apps.Input // label
	batch []chunkRef // ingest
}

// chunkRef is one job's chunk within an ingest request.
type chunkRef struct {
	job   string
	exec  *poolExec
	chunk int
}

// slot is one live job position of a worker.
type slot struct {
	id        string
	exec      *poolExec
	truth     apps.Label // what the benchmark expects and labels
	chunk     int        // next chunk to send
	sent      int64      // samples sent for the current job
	startTick int        // tick at which the slot's first job starts
	finished  int        // jobs completed in this slot
}

// phase is one online measurement against one daemon.
type phase struct {
	env *onlineEnv
	d   *daemon
	c   *client.Client
	hc  *http.Client
	tr  *tracer // nil unless traced

	retries, shed atomic.Int64

	// The coordinator closes measure when every worker has warmed up;
	// each worker blocks on it once.
	warm    sync.WaitGroup
	measure chan struct{}
	start   time.Time
	end     time.Time

	benchCPUStart, benchCPUEnd float64
	peakAnonMiB                float64 // efdd's peak anonymous RSS
	gcPauseStart, gcPauseEnd   uint64
	host                       []hostSample // readings across the measured phase

	workers [conns]*worker
}

// worker is one connection's closed loop and its tallies.
type worker struct {
	p     *phase
	idx   int
	rng   *rand.Rand
	slots []*slot
	seq   int // jobs started by this worker
	tick  int

	measuring bool
	lat       [numOps][]float64 // measured-phase latencies, ms
	at        [numOps][]float64 // their completion times, s after the phase start
	ackAt     []float64         // completion times of measured ingest acks
	ackN      []float64         // samples each of them acknowledged
	attempted int64             // measured-phase operations
	failed    int64

	expected      int64 // samples the worker meant to deliver (all phases)
	acked         int64 // samples acknowledged (all phases)
	measuredAcked int64
	sentTotal     int64 // samples sent during the measured phase
	usefulTotal   int64 // of those, samples the fingerprint uses

	completed, correct int              // measured-phase final answers
	labelled           map[string]int64 // labelled job → samples sent
	labelRing          []string         // labelled job IDs, oldest first
	labels             int
	dropped            bool

	ops []op // traced phases only
}

func newPhase(env *onlineEnv, d *daemon, traced bool) *phase {
	p := &phase{env: env, d: d, measure: make(chan struct{})}
	p.hc = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
	}}
	if traced {
		p.tr = newTracer()
		p.hc.Transport = &traceTransport{base: p.hc.Transport, tr: p.tr}
	}
	mode := client.BinaryNever
	if env.w.durable {
		mode = client.BinaryAlways
	}
	p.c = client.New(d.base, client.WithHTTPClient(p.hc), client.WithBinaryIngest(mode),
		client.WithMetrics(client.Metrics{
			Retry: func() { p.retries.Add(1) },
			Shed:  func() { p.shed.Add(1) },
		}))
	perWorker := env.w.jobs / conns
	for i := range p.workers {
		wk := &worker{p: p, idx: i, labelled: make(map[string]int64),
			rng: rand.New(rand.NewSource(env.o.seed*7_777 + int64(i)))}
		for k := 0; k < perWorker; k++ {
			wk.slots = append(wk.slots, &slot{startTick: k * numChunks() / perWorker})
		}
		p.workers[i] = wk
	}
	return p
}

// run warms every worker up until each slot has completed a job, then
// measures for the run length. The returned error is the first failed
// operation or check; it stops the other worker too.
func (p *phase) run(ctx context.Context, seconds int) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stopSampler := p.d.sampleAnonRSS(20 * time.Millisecond)
	p.warm.Add(conns)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for i, wk := range p.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[i] = wk.loop(ctx); errs[i] != nil {
				cancel()
			}
		}()
	}
	p.warm.Wait()
	if p.tr != nil {
		p.tr.scrapeBefore(ctx, p.d.base)
	}
	p.benchCPUStart, p.gcPauseStart = selfCPU(), gcPauseNs()
	p.start = time.Now()
	p.end = p.start.Add(time.Duration(seconds) * time.Second)
	stopHost := p.sampleHost(hostPeriod)
	close(p.measure)
	wg.Wait()
	p.end = time.Now()
	p.host = stopHost()
	p.peakAnonMiB = stopSampler()
	p.benchCPUEnd, p.gcPauseEnd = selfCPU(), gcPauseNs()
	if p.tr != nil {
		p.tr.scrapeAfter(ctx, p.d.base)
	}
	var first error
	for _, err := range errs {
		if err != nil && (first == nil || errors.Is(first, context.Canceled)) {
			first = err
		}
	}
	return first
}

func (wk *worker) loop(ctx context.Context) error {
	warmDone := false
	defer func() {
		if !warmDone {
			wk.p.warm.Done()
		}
	}()
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if !wk.measuring {
			if wk.warmedUp() {
				warmDone = true
				wk.p.warm.Done()
				select {
				case <-wk.p.measure:
				case <-ctx.Done():
					return ctx.Err()
				}
				wk.measuring = true
			}
		} else if !time.Now().Before(wk.p.end) {
			return nil
		}
		if err := wk.tickOnce(ctx); err != nil {
			return err
		}
		wk.tick++
	}
}

func (wk *worker) warmedUp() bool {
	for _, s := range wk.slots {
		if s.finished == 0 {
			return false
		}
	}
	return true
}

// tickOnce is one closed-loop iteration: start due jobs, send one
// ingest request covering the next chunk of every live job, poll the
// jobs past 60 s, and finish the jobs that sent their last chunk.
func (wk *worker) tickOnce(ctx context.Context) error {
	p := wk.p
	ctx, tickSpan := p.tr.begin(ctx, "tick", fmt.Sprintf("w%d", wk.idx))
	defer p.tr.end(tickSpan)
	for _, s := range wk.slots {
		if s.id == "" && wk.tick >= s.startTick {
			if err := wk.startJob(ctx, s); err != nil {
				return err
			}
		}
	}

	var refs []chunkRef
	want := 0
	for _, s := range wk.slots {
		if s.id != "" && s.chunk < numChunks() {
			refs = append(refs, chunkRef{job: s.id, exec: s.exec, chunk: s.chunk})
			want += s.exec.count[s.chunk]
		}
	}
	if len(refs) > 0 {
		if err := wk.ingest(ctx, refs, want); err != nil {
			return err
		}
		for _, s := range wk.slots {
			if s.id != "" && s.chunk < numChunks() {
				s.sent += int64(s.exec.count[s.chunk])
				s.chunk++
			}
		}
	}

	for _, s := range wk.slots {
		if s.id == "" || s.chunk >= numChunks() || s.chunk*chunkSeconds <= pollFromSec {
			continue
		}
		for i := 0; i < p.env.w.polls; i++ {
			if _, err := wk.result(ctx, s.id); err != nil {
				return err
			}
		}
	}

	for _, s := range wk.slots {
		if s.id != "" && s.chunk >= numChunks() {
			if err := wk.finishJob(ctx, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func (wk *worker) startJob(ctx context.Context, s *slot) error {
	pool := wk.p.env.pool
	s.exec = pool[wk.rng.Intn(len(pool))]
	s.truth = s.exec.label
	if wk.p.env.o.fault == faultWrongLabel {
		s.truth = wrongLabel(pool, s.exec.label)
	}
	s.id = fmt.Sprintf("w%d-%06d", wk.idx, wk.seq)
	s.chunk, s.sent = 0, 0
	wk.seq++
	return wk.do(ctx, op{kind: opRegister, job: s.id}, func(ctx context.Context) error {
		return wk.p.c.Register(ctx, s.id, jobNodes)
	})
}

// wrongLabel is a label of another application that supports the same
// input size, so the label request itself is valid.
func wrongLabel(pool []*poolExec, l apps.Label) apps.Label {
	for _, pe := range pool {
		if pe.label.App != l.App && pe.label.Input == l.Input {
			return pe.label
		}
	}
	return l
}

func (wk *worker) ingest(ctx context.Context, refs []chunkRef, want int) error {
	p := wk.p
	wk.expected += int64(want)
	if p.env.o.fault == faultDropBatch && wk.measuring && !wk.dropped {
		// The deliberate defect: a batch counted as sent that never
		// reaches efdd. The ack accounting must notice.
		wk.dropped = true
		return nil
	}
	var res client.IngestResult
	err := wk.do(ctx, op{kind: opIngest, batch: refs}, func(ctx context.Context) error {
		var err error
		if p.env.w.durable {
			res, err = p.c.IngestRuns(ctx, runBatches(refs))
		} else {
			res, err = p.c.IngestBatches(ctx, rowBatches(refs))
		}
		return err
	})
	if err != nil {
		return err
	}
	if res.Accepted != want || len(res.Unknown) != 0 {
		wk.failed++
		return checkf("ingest ack: accepted %d of %d samples, unknown jobs %v", res.Accepted, want, res.Unknown)
	}
	wk.acked += int64(res.Accepted)
	if wk.measuring {
		wk.measuredAcked += int64(res.Accepted)
		wk.ackAt = append(wk.ackAt, time.Since(p.start).Seconds())
		wk.ackN = append(wk.ackN, float64(res.Accepted))
		for _, r := range refs {
			wk.sentTotal += int64(r.exec.count[r.chunk])
			wk.usefulTotal += int64(r.exec.useful[r.chunk])
		}
	}
	return nil
}

func (wk *worker) result(ctx context.Context, id string) (monitor.State, error) {
	var st monitor.State
	err := wk.do(ctx, op{kind: opResult, job: id}, func(ctx context.Context) error {
		var err error
		st, err = wk.p.c.Result(ctx, id)
		return err
	})
	if err == nil && st.JobID != id {
		err = checkf("result for %s answered for %q", id, st.JobID)
	}
	return st, err
}

// finishJob takes the final answer of a job that sent all its
// telemetry, then labels or closes it and frees the slot.
func (wk *worker) finishJob(ctx context.Context, s *slot) error {
	p := wk.p
	st, err := wk.result(ctx, s.id)
	if err != nil {
		return err
	}
	if !st.Complete {
		return checkf("final result of %s is not complete after %d s of telemetry", s.id, jobSeconds)
	}
	if wk.measuring {
		wk.completed++
		if st.Top == s.truth.App {
			wk.correct++
		}
	}
	label := p.env.w.durable || s.finished%2 == 0
	if label {
		err = wk.do(ctx, op{kind: opLabel, job: s.id, app: s.truth.App, input: s.truth.Input}, func(ctx context.Context) error {
			_, err := p.c.Label(ctx, s.id, s.truth.App, string(s.truth.Input))
			return err
		})
		if err != nil {
			return err
		}
		wk.labelled[s.id] = s.sent
		wk.labelRing = append(wk.labelRing, s.id)
		wk.labels++
		if n := p.env.w.recognizeEvery; n > 0 && wk.labels%n == 0 && len(wk.labelRing) > storedLag {
			old := wk.labelRing[len(wk.labelRing)-1-storedLag]
			if err := wk.stored(ctx, old); err != nil {
				return err
			}
		}
		if len(wk.labelRing) > 2*storedLag {
			wk.labelRing = append(wk.labelRing[:0], wk.labelRing[len(wk.labelRing)-storedLag-1:]...)
		}
	} else {
		err = wk.do(ctx, op{kind: opClose, job: s.id}, func(ctx context.Context) error {
			return p.c.Delete(ctx, s.id)
		})
		if err != nil {
			return err
		}
	}
	s.finished++
	s.id = ""
	return wk.startJob(ctx, s)
}

func (wk *worker) stored(ctx context.Context, id string) error {
	var st monitor.State
	err := wk.do(ctx, op{kind: opStored, job: id}, func(ctx context.Context) error {
		var err error
		st, err = wk.p.c.RecognizeExecution(ctx, id)
		return err
	})
	if err != nil {
		return err
	}
	if st.JobID != id || !st.Complete {
		return checkf("stored recognition of %s answered %+v", id, st)
	}
	return nil
}

// do times one client call, records it for the replay and the span
// log when tracing, and counts it.
func (wk *worker) do(ctx context.Context, o op, call func(context.Context) error) error {
	p := wk.p
	ctx, sp := p.tr.begin(ctx, opNames[o.kind], o.job)
	o.start = time.Now()
	err := call(ctx)
	ms := float64(time.Since(o.start)) / float64(time.Millisecond)
	p.tr.end(sp)
	if p.tr != nil {
		wk.ops = append(wk.ops, o)
	}
	if wk.measuring {
		wk.attempted++
		wk.lat[o.kind] = append(wk.lat[o.kind], ms)
		wk.at[o.kind] = append(wk.at[o.kind], time.Since(p.start).Seconds())
	}
	if err != nil {
		if wk.measuring {
			wk.failed++
		}
		return fmt.Errorf("%s %s: %w", opNames[o.kind], o.job, err)
	}
	return nil
}

func runBatches(refs []chunkRef) []monitor.RunBatch {
	out := make([]monitor.RunBatch, len(refs))
	for i, r := range refs {
		out[i] = monitor.RunBatch{JobID: r.job, Runs: r.exec.runs[r.chunk]}
	}
	return out
}

func rowBatches(refs []chunkRef) []monitor.Batch {
	out := make([]monitor.Batch, len(refs))
	for i, r := range refs {
		out[i] = monitor.Batch{JobID: r.job, Samples: r.exec.samples[r.chunk]}
	}
	return out
}

// phaseTotals merges the workers' tallies.
type phaseTotals struct {
	lat, at                   [numOps][]float64
	ackAt, ackN               []float64
	attempted, failed         int64
	expected, acked, measured int64
	sent, useful              int64
	completed, correct        int
	labelled                  map[string]int64
	wall                      float64
}

func (p *phase) totals() phaseTotals {
	t := phaseTotals{labelled: make(map[string]int64), wall: p.end.Sub(p.start).Seconds()}
	for _, wk := range p.workers {
		for k := range wk.lat {
			t.lat[k] = append(t.lat[k], wk.lat[k]...)
			t.at[k] = append(t.at[k], wk.at[k]...)
		}
		t.ackAt = append(t.ackAt, wk.ackAt...)
		t.ackN = append(t.ackN, wk.ackN...)
		t.attempted += wk.attempted
		t.failed += wk.failed
		t.expected += wk.expected
		t.acked += wk.acked
		t.measured += wk.measuredAcked
		t.sent += wk.sentTotal
		t.useful += wk.usefulTotal
		t.completed += wk.completed
		t.correct += wk.correct
		for id, n := range wk.labelled {
			t.labelled[id] = n
		}
	}
	return t
}

// check runs the end-of-phase correctness checks against the daemon.
func (p *phase) check(ctx context.Context, t phaseTotals) error {
	if t.failed > 0 {
		return checkf("%d of %d operations failed", t.failed, t.attempted)
	}
	stats, err := p.c.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("GET /v1/metrics: %w", err)
	}
	if t.acked != t.expected || stats.SamplesAccepted != t.expected {
		return checkf("ack accounting: sent %d samples, acks sum to %d, efdd samples_accepted_total %d", t.expected, t.acked, stats.SamplesAccepted)
	}
	if t.completed == 0 {
		return checkf("no job completed during the measured phase")
	}
	if acc := float64(t.correct) / float64(t.completed); acc < minAccuracy {
		return checkf("online accuracy %.4f (%d of %d final answers) is below %.2f", acc, t.correct, t.completed, minAccuracy)
	}
	if p.env.w.durable {
		execs, err := p.c.Executions(ctx)
		if err != nil {
			return fmt.Errorf("GET /v1/executions: %w", err)
		}
		have := make(map[string]int64, len(execs))
		for _, e := range execs {
			have[e.ID] = e.Samples
		}
		for id, n := range t.labelled {
			got, ok := have[id]
			if !ok {
				return checkf("labelled job %s is missing from /v1/executions", id)
			}
			if got != n {
				return checkf("stored execution %s holds %d samples, %d were sent", id, got, n)
			}
		}
	}
	return nil
}

// measuredOnline is the untraced run: one measured phase on the
// daemon set-up started, then the end-to-end metrics.
func measuredOnline(ctx context.Context, env *onlineEnv, rep *report) error {
	p := newPhase(env, env.d, false)
	defer env.d.stop()
	t, err := p.runChecked(ctx)
	if err != nil {
		return err
	}
	hwm, err := env.d.vmHWM()
	if err != nil {
		return err
	}
	if err := env.d.stop(); err != nil {
		return err
	}
	rep.attempted, rep.failed = t.attempted, t.failed
	if len(t.lat[opResult]) == 0 {
		return checkf("no result operation in the measured phase")
	}
	quiet := quietHalf(p.host)
	rep.set("cpu_us_per_sample", efddCPUPerSample(quiet, t))
	rep.set("result_p50_ms", median(inWindows(quiet, t.at[opResult], t.lat[opResult])))
	rep.set("online_accuracy", float64(t.correct)/float64(t.completed))
	rep.note("efdd peak anonymous RSS %.1f MiB; VmHWM, mapped segment files included, %.1f MiB", p.peakAnonMiB, hwm)
	p.noteTotals(rep, t)
	return nil
}

// runChecked runs the phase and its checks.
func (p *phase) runChecked(ctx context.Context) (phaseTotals, error) {
	defer p.hc.CloseIdleConnections()
	if err := p.run(ctx, p.env.o.seconds); err != nil {
		return phaseTotals{}, err
	}
	t := p.totals()
	return t, p.check(ctx, t)
}

func (p *phase) noteTotals(rep *report, t phaseTotals) {
	all, quiet := windowsOf(p.host[:1], p.host[len(p.host)-1:]), quietHalf(p.host)
	rep.note("measured %.3f s: %d samples acked, %d operations, %d failed (op_error_rate %.4g); host steal %.1f%% of CPU time, %.1f%% in the quieter half of the %.1f s windows", t.wall, t.measured, t.attempted, t.failed, float64(t.failed)/float64(max(t.attempted, 1)),
		100*stealShare(all), 100*stealShare(quiet), hostPeriod.Seconds())
	for k := opKind(0); k < numOps; k++ {
		if n := len(t.lat[k]); n > 0 {
			rep.note("%-13s n=%-7d p50 %.4f ms  p99 %.4f ms (%d samples above p99); quieter-half p50 %.4f ms", opNames[k], n, quantile(t.lat[k], 0.5), quantile(t.lat[k], 0.99), n-int(math.Ceil(0.99*float64(n))),
				median(inWindows(quiet, t.at[k], t.lat[k])))
		}
	}
	rep.note("samples/s acked over the measured wall time: %.0f; efdd CPU %.3f us per sample, %.3f in the quieter half", float64(t.measured)/t.wall, efddCPUPerSample(all, t), efddCPUPerSample(quiet, t))
	rep.note("final answers: %d of %d name the true application; %d jobs labelled", t.correct, t.completed, len(t.labelled))
	stored := ""
	if p.env.w.durable {
		stored = ", every labelled job stored with its samples"
	}
	rep.note("checks passed: every ack matched, acks sum to samples_accepted_total, every final result complete, accuracy >= %.2f%s", minAccuracy, stored)
}

// hostPeriod is how often the measured phase reads the host's and
// efdd's CPU counters.
const hostPeriod = 500 * time.Millisecond

// hostSample is one reading of the host's CPU ticks (/proc/stat: all,
// and those the hypervisor stole for other guests) and efdd's CPU time.
type hostSample struct {
	at           float64 // s after the phase start
	steal, total float64
	efddCPU      float64 // s
}

// sampleHost reads the counters now and every period until the
// returned stop function is called, which reads them once more and
// returns every reading.
func (p *phase) sampleHost(period time.Duration) (stop func() []hostSample) {
	read := func() hostSample {
		s := hostSample{at: time.Since(p.start).Seconds(), efddCPU: p.d.cpuSeconds()}
		s.steal, s.total = hostSteal()
		return s
	}
	quit := make(chan struct{})
	done := make(chan []hostSample)
	first := read()
	go func() {
		out := []hostSample{first}
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				done <- append(out, read())
				return
			case <-tick.C:
				out = append(out, read())
			}
		}
	}()
	return func() []hostSample {
		close(quit)
		return <-done
	}
}

// window is the span between two host readings.
type window struct {
	lo, hi       float64 // s after the phase start
	steal, total float64 // host ticks in the window
	efddCPU      float64 // efdd CPU seconds in the window
}

// windowsOf pairs readings: starts[i] with ends[i].
func windowsOf(starts, ends []hostSample) []window {
	out := make([]window, len(starts))
	for i := range starts {
		a, b := starts[i], ends[i]
		out[i] = window{lo: a.at, hi: b.at, steal: b.steal - a.steal, total: b.total - a.total, efddCPU: b.efddCPU - a.efddCPU}
	}
	return out
}

// quietHalf is the half of the measured phase's windows in which the
// hypervisor stole the least CPU from this machine. A shared host's
// neighbours slow everything on it, CPU time included, in episodes of
// seconds to minutes; the end-to-end online metrics are read from the
// quieter half so that they follow the program more than the
// neighbours.
func quietHalf(readings []hostSample) []window {
	ws := windowsOf(readings[:len(readings)-1], readings[1:])
	sort.SliceStable(ws, func(i, j int) bool {
		return ws[i].steal/max(ws[i].total, 1) < ws[j].steal/max(ws[j].total, 1)
	})
	return ws[:(len(ws)+1)/2]
}

func stealShare(ws []window) float64 {
	var steal, total float64
	for _, w := range ws {
		steal, total = steal+w.steal, total+w.total
	}
	return steal / max(total, 1)
}

// inWindows keeps the values whose time falls in one of the windows.
func inWindows(ws []window, at, vals []float64) []float64 {
	var out []float64
	for i, t := range at {
		for _, w := range ws {
			if t >= w.lo && t < w.hi {
				out = append(out, vals[i])
				break
			}
		}
	}
	return out
}

// efddCPUPerSample is efdd's user+system CPU time per sample
// acknowledged in the windows, in µs: what a sample costs the daemon
// under this traffic mix.
func efddCPUPerSample(ws []window, t phaseTotals) float64 {
	var cpu float64
	for _, w := range ws {
		cpu += w.efddCPU
	}
	return cpu * 1e6 / max(sum(inWindows(ws, t.ackAt, t.ackN)), 1)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func roundAll(xs []float64, digits int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.*f", digits, x)
	}
	return out
}
