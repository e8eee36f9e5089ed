package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/efd/monitor"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/tsdb"
	"repro/internal/wire"
)

// span is one timed call the benchmark made into a layer. Every
// client call carries its own trace ID in X-Efd-Trace, so its span
// and efdd's record of the request share an identifier; its parent is
// the closed-loop tick that issued it.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type spanKey struct{}

// tracer keeps a traced phase's spans in memory, written out when the
// run ends, and the /metrics scrapes that bracket its measured part.
type tracer struct {
	t0     time.Time
	ids    *obs.Tracer
	next   atomic.Int64
	mu     sync.Mutex
	spans  []*span
	echoed atomic.Int64 // responses whose X-Efd-Trace differed from ours

	before, after map[string]float64
	scrapeErr     error
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), ids: obs.NewTracer(0x5eed)}
}

// begin opens a span under the context's current span. A nil tracer
// records nothing.
func (t *tracer) begin(ctx context.Context, name, job string) (context.Context, *span) {
	if t == nil {
		return ctx, nil
	}
	sp := &span{ID: t.next.Add(1), Trace: t.ids.NextID(), Name: name, Job: job, Start: int64(time.Since(t.t0))}
	if parent, ok := ctx.Value(spanKey{}).(*span); ok {
		sp.Parent = parent.ID
	}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

func (t *tracer) end(sp *span) {
	if t == nil || sp == nil {
		return
	}
	sp.End = int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

func (t *tracer) scrapeBefore(ctx context.Context, base string) {
	t.before, t.scrapeErr = scrape(ctx, base)
}

func (t *tracer) scrapeAfter(ctx context.Context, base string) {
	var err error
	t.after, err = scrape(ctx, base)
	if t.scrapeErr == nil {
		t.scrapeErr = err
	}
}

// delta is the change of one exposition series across the measured
// part of the traced phase.
func (t *tracer) delta(series string) float64 { return t.after[series] - t.before[series] }

// histMean is a histogram's mean over the measured part (0 when it
// observed nothing).
func (t *tracer) histMean(name, labels string) float64 {
	n := t.delta(name + "_count" + labels)
	if n == 0 {
		return 0
	}
	return t.delta(name+"_sum"+labels) / n
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// traceTransport sets each call's trace ID on the request and counts
// responses that do not echo it.
type traceTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t *traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sp, ok := req.Context().Value(spanKey{}).(*span)
	if !ok {
		return t.base.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(obs.TraceHeader, sp.Trace)
	resp, err := t.base.RoundTrip(req)
	if err == nil && resp.Header.Get(obs.TraceHeader) != sp.Trace {
		t.tr.echoed.Add(1)
	}
	return resp, err
}

// scrape reads efdd's Prometheus exposition into series → value,
// keyed by the series as printed (name plus label set).
func scrape(ctx context.Context, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", resp.StatusCode)
	}
	return parseExposition(string(raw))
}

func parseExposition(text string) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("exposition line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("exposition line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// tracedOnline is the --trace 1 run: an untraced phase on the set-up
// daemon (the reference for trace.overhead_share), then a traced phase
// with the same inputs on a fresh daemon, then the layered replay of
// the traced phase's operations.
func tracedOnline(ctx context.Context, env *onlineEnv, rep *report) error {
	pa := newPhase(env, env.d, false)
	ta, err := pa.runChecked(ctx)
	env.d.stop()
	if err != nil {
		return err
	}
	d, err := env.startDaemon(ctx)
	if err != nil {
		return err
	}
	defer d.stop()
	p := newPhase(env, d, true)
	t, err := p.runChecked(ctx)
	if err != nil {
		return err
	}
	tr := p.tr
	if tr.scrapeErr != nil {
		return tr.scrapeErr
	}
	if n := tr.echoed.Load(); n > 0 {
		return checkf("%d responses did not echo the request's %s", n, obs.TraceHeader)
	}
	info, err := p.c.Dictionary(ctx)
	if err != nil {
		return fmt.Errorf("GET /v1/dictionary: %w", err)
	}
	var storeBytes int64
	if d.dataDir != "" {
		if storeBytes, err = dirBytes(d.dataDir); err != nil {
			return err
		}
	}
	if err := d.stop(); err != nil {
		return err
	}
	rep.attempted, rep.failed = t.attempted, t.failed
	p.noteTotals(rep, t)

	ops := replayPrefix(p, env.sz.replaySeconds)
	lay, err := replayLayers(env, ops)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	rep.note("replayed %d operations (%d ingest) into server, engine, tsdb and core", len(ops), lay[layerServer].n[opIngest])

	us := func(s float64) float64 { return s * 1e6 }
	clientMean := func(k opKind) float64 { return mean(t.lat[k]) * 1e3 } // µs

	// efd/client
	rep.set("client.ingest_calls", float64(len(t.lat[opIngest])))
	rep.set("client.retries", float64(p.retries.Load()))
	rep.set("client.shed", float64(p.shed.Load()))
	rep.set("client.op_error_rate", float64(t.failed)/float64(max(t.attempted, 1)))
	rep.set("client.wall_samples_per_s", float64(t.measured)/t.wall)
	for _, k := range []opKind{opIngest, opResult, opLabel} {
		rep.set("client."+opNames[k]+"_p50_ms", quantile(t.lat[k], 0.5))
		rep.set("client."+opNames[k]+"_p99_ms", quantile(t.lat[k], 0.99))
	}
	rep.set("client.stored_result_p50_ms", quantile(t.lat[opStored], 0.5))
	rep.set("client.stored_result_p99_ms", quantile(t.lat[opStored], 0.99))

	// internal/server: per-route histograms, scraped. GET result,
	// POST label and DELETE share the /v1/jobs/{id} route, so its time
	// is split between them in proportion to their replayed handler
	// times.
	srvIngest := us(tr.histMean("efd_http_request_seconds", `{route="/v1/samples"}`))
	srvStored := us(tr.histMean("efd_http_request_seconds", `{route="/v1/executions/{id}"}`))
	jobRouteUS := us(tr.delta(`efd_http_request_seconds_sum{route="/v1/jobs/{id}"}`))
	var weighted float64
	for _, k := range []opKind{opResult, opLabel, opClose} {
		weighted += float64(len(t.lat[k])) * lay[layerServer].mean(k)
	}
	split := func(k opKind) float64 {
		if weighted == 0 {
			return 0
		}
		return jobRouteUS / weighted * lay[layerServer].mean(k)
	}
	srvResult, srvLabel := split(opResult), split(opLabel)
	rep.set("server.ingest_mean_us", srvIngest)
	rep.set("server.result_mean_us", srvResult)
	rep.set("server.label_mean_us", srvLabel)
	rep.set("server.stored_result_mean_us", srvStored)
	rep.set("server.ingest_self_us", lay[layerServer].mean(opIngest)-lay[layerEngine].mean(opIngest))
	rep.set("server.result_self_us", lay[layerServer].mean(opResult)-lay[layerEngine].mean(opResult))
	rep.set("client.ingest_residual_us", clientMean(opIngest)-srvIngest)
	rep.set("client.result_residual_us", clientMean(opResult)-srvResult)

	// efd/monitor
	rep.set("engine.ingest_mean_us", us(tr.histMean("efd_engine_ingest_seconds", "")))
	rep.set("engine.batch_samples_mean", tr.histMean("efd_engine_ingest_batch_samples", ""))
	rep.set("engine.shed_total", tr.delta("efd_engine_ingest_shed_total"))
	rep.set("engine.rejected_total", tr.delta("efd_engine_batches_rejected_total"))
	rep.set("engine.ingest_self_us", lay[layerEngine].mean(opIngest)-lay[layerTSDB].mean(opIngest)-lay[layerCore].mean(opIngest))
	rep.set("engine.result_us", lay[layerEngine].mean(opResult))
	rep.set("engine.label_us", lay[layerEngine].mean(opLabel))
	rep.set("engine.stored_result_us", lay[layerEngine].mean(opStored))

	// internal/tsdb: all zero on a memory-only workload.
	rep.set("tsdb.appends", tr.delta("efd_tsdb_wal_append_seconds_count"))
	rep.set("tsdb.append_seconds_sum", tr.delta("efd_tsdb_wal_append_seconds_sum"))
	rep.set("tsdb.commits", tr.delta("efd_tsdb_commit_seconds_count"))
	rep.set("tsdb.commit_seconds_sum", tr.delta("efd_tsdb_commit_seconds_sum"))
	rep.set("tsdb.records_per_commit", tr.histMean("efd_tsdb_commit_batch_records", ""))
	rep.set("tsdb.flushes", tr.delta("efd_tsdb_flush_seconds_count"))
	rep.set("tsdb.flush_seconds_sum", tr.delta("efd_tsdb_flush_seconds_sum"))
	rep.set("tsdb.flush_bytes", tr.delta("efd_tsdb_flush_bytes_sum"))
	rep.set("tsdb.mmap_reads", tr.delta("efd_tsdb_mmap_reads_total"))
	rep.set("tsdb.bytes_per_sample", float64(storeBytes)/float64(max(t.acked, 1)))

	// internal/core
	rep.set("core.useful_sample_share", float64(t.useful)/float64(max(t.sent, 1)))
	rep.set("core.feed_ns_per_sample", lay[layerCore].nsPerSample())
	rep.set("core.recognize_ns", lay[layerCore].mean(opResult)*1e3)
	rep.set("core.learn_us", lay[layerCore].mean(opLabel))
	rep.set("core.dict_keys", float64(info.Keys))

	// Processes.
	rep.set("efdd.cpu_s", p.host[len(p.host)-1].efddCPU-p.host[0].efddCPU)
	rep.set("efdd.peak_rss_mb", p.peakAnonMiB)
	rep.set("bench.cpu_s", p.benchCPUEnd-p.benchCPUStart)
	rep.set("bench.gc_pause_ms", float64(p.gcPauseEnd-p.gcPauseStart)/1e6)

	// Budget: what the route histogram saw minus what the in-process
	// replay of the same operations accounts for (queueing and
	// contention under concurrent load), as a share of the latency the
	// client saw.
	residual := func(scraped float64, k opKind) float64 {
		c := clientMean(k)
		if c == 0 || scraped == 0 {
			return 0
		}
		return (scraped - lay[layerServer].mean(k)) / c
	}
	rep.set("budget.ingest_residual_share", residual(srvIngest, opIngest))
	rep.set("budget.result_residual_share", residual(srvResult, opResult))
	rep.set("budget.label_residual_share", residual(srvLabel, opLabel))
	rep.set("budget.stored_result_residual_share", residual(srvStored, opStored))
	untraced, traced := float64(ta.measured)/ta.wall, float64(t.measured)/t.wall
	rep.set("trace.overhead_share", (untraced-traced)/untraced)
	rep.note("trace overhead: %.0f samples/s untraced, then %.0f traced on a fresh efdd", untraced, traced)

	if err := encodeCodec(env, ops, rep); err != nil {
		return err
	}
	path := filepath.Join(env.o.work, fmt.Sprintf("trace-%s-seed%d.json", env.w.name, env.o.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	rep.note("spans: %d written to %s", len(tr.spans), path)
	return nil
}

// replayPrefix is the traced phase's operations in start order, cut
// after the first `seconds` of recorded wall time. A job's operations
// run in order on one worker, so the prefix never holds an operation
// without the registration before it.
func replayPrefix(p *phase, seconds float64) []op {
	var ops []op
	for _, wk := range p.workers {
		ops = append(ops, wk.ops...)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].start.Before(ops[j].start) })
	if len(ops) == 0 {
		return nil
	}
	cut := ops[0].start.Add(time.Duration(seconds * float64(time.Second)))
	n := sort.Search(len(ops), func(i int) bool { return ops[i].start.After(cut) })
	return ops[:n]
}

const (
	layerServer = iota
	layerEngine
	layerTSDB
	layerCore
	numLayers
)

// layerTimes is one layer's replay: time and count per operation kind.
type layerTimes struct {
	sum     [numOps]time.Duration
	n       [numOps]int
	samples int64
}

func (lt *layerTimes) add(k opKind, d time.Duration) {
	lt.sum[k] += d
	lt.n[k]++
}

// mean is the mean time per operation of kind k, in µs.
func (lt *layerTimes) mean(k opKind) float64 {
	if lt.n[k] == 0 {
		return 0
	}
	return float64(lt.sum[k]) / float64(lt.n[k]) / 1e3
}

func (lt *layerTimes) nsPerSample() float64 {
	if lt.samples == 0 {
		return 0
	}
	return float64(lt.sum[opIngest]) / float64(lt.samples)
}

// replayLayers runs the operations serially, in-process, into each
// layer on a fresh stack: server.Handler() through httptest (no
// socket), the monitor engine, the tsdb store (durable workloads) and
// the core stream and shared dictionary.
func replayLayers(env *onlineEnv, ops []op) ([numLayers]layerTimes, error) {
	var out [numLayers]layerTimes
	steps := []struct {
		layer int
		run   func(*onlineEnv, []op, *layerTimes) error
	}{
		{layerServer, replayServer},
		{layerEngine, replayEngine},
		{layerTSDB, replayTSDB},
		{layerCore, replayCore},
	}
	for _, s := range steps {
		runtime.GC()
		if err := s.run(env, ops, &out[s.layer]); err != nil {
			return out, err
		}
	}
	return out, nil
}

func loadDict(path string) (*core.Dictionary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.Load(f)
}

// newEngine builds an engine configured as efdd configures it, with a
// store in a fresh directory for durable workloads.
func newEngine(env *onlineEnv) (*monitor.Engine, *obs.Registry, error) {
	dict, err := loadDict(env.dictPath)
	if err != nil {
		return nil, nil, err
	}
	eng := monitor.New(dict)
	reg := obs.NewRegistry()
	eng.EnableMetrics(reg)
	dir, err := env.newDataDir()
	if err != nil {
		return nil, nil, err
	}
	if dir != "" {
		if _, err := eng.OpenStore(dir, monitor.StoreOptions{}); err != nil {
			return nil, nil, err
		}
	}
	return eng, reg, nil
}

// encodeRuns is the binary request body exactly as efd/client frames
// it.
func encodeRuns(frames, payload []byte, refs []chunkRef) ([]byte, []byte) {
	frames = frames[:0]
	for _, r := range refs {
		for _, run := range r.exec.runs[r.chunk] {
			payload = wire.AppendRun(payload[:0], r.job, run.Metric, run.Node, run.Offsets, run.Values)
			frames = wire.AppendFrame(frames, payload)
		}
	}
	return frames, payload
}

type jsonIngest struct {
	Batches []monitor.Batch `json:"batches"`
}

func replayServer(env *onlineEnv, ops []op, lt *layerTimes) error {
	eng, reg, err := newEngine(env)
	if err != nil {
		return err
	}
	defer eng.CloseStore()
	srv := server.NewEngine(eng)
	srv.EnableObs(reg, 1)
	h := srv.Handler()
	var frames, payload []byte
	for _, o := range ops {
		var req *http.Request
		path := "/v1/jobs/" + url.PathEscape(o.job)
		switch o.kind {
		case opRegister:
			req = httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(fmt.Sprintf(`{"job_id":%q,"nodes":%d}`, o.job, jobNodes)))
		case opIngest:
			if env.w.durable {
				frames, payload = encodeRuns(frames, payload, o.batch)
				req = httptest.NewRequest(http.MethodPost, "/v1/samples", bytes.NewReader(frames))
				req.Header.Set("Content-Type", wire.ContentTypeRuns)
			} else {
				body, err := json.Marshal(jsonIngest{rowBatches(o.batch)})
				if err != nil {
					return err
				}
				req = httptest.NewRequest(http.MethodPost, "/v1/samples", bytes.NewReader(body))
				req.Header.Set("Content-Type", "application/json")
			}
		case opResult:
			req = httptest.NewRequest(http.MethodGet, path, nil)
		case opLabel:
			req = httptest.NewRequest(http.MethodPost, path+"/label", strings.NewReader(fmt.Sprintf(`{"app":%q,"input":%q}`, o.app, o.input)))
		case opClose:
			req = httptest.NewRequest(http.MethodDelete, path, nil)
		case opStored:
			req = httptest.NewRequest(http.MethodPost, "/v1/executions/"+url.PathEscape(o.job)+"/recognize", nil)
		}
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		lt.add(o.kind, time.Since(t0))
		if rec.Code != http.StatusOK && rec.Code != http.StatusCreated {
			return fmt.Errorf("server %s %s: status %d: %s", opNames[o.kind], o.job, rec.Code, rec.Body.String())
		}
	}
	return nil
}

func replayEngine(env *onlineEnv, ops []op, lt *layerTimes) error {
	eng, _, err := newEngine(env)
	if err != nil {
		return err
	}
	defer eng.CloseStore()
	for _, o := range ops {
		var err error
		var rb []monitor.RunBatch
		var jb []monitor.Batch
		if o.kind == opIngest {
			if env.w.durable {
				rb = runBatches(o.batch)
			} else {
				jb = rowBatches(o.batch)
			}
		}
		t0 := time.Now()
		switch o.kind {
		case opRegister:
			_, err = eng.Register(o.job, jobNodes)
		case opIngest:
			if rb != nil {
				_, _, err = eng.IngestRuns(rb)
			} else {
				_, _, err = eng.IngestBatches(jb)
			}
		case opResult, opLabel, opClose:
			j, ok := eng.Lookup(o.job)
			if !ok {
				err = fmt.Errorf("unknown job")
				break
			}
			switch o.kind {
			case opResult:
				_, err = j.Result()
			case opLabel:
				_, err = j.Label(o.app, string(o.input))
			default:
				err = j.Close()
			}
		case opStored:
			_, err = eng.RecognizeStored(o.job)
		}
		lt.add(o.kind, time.Since(t0))
		if err != nil {
			return fmt.Errorf("engine %s %s: %w", opNames[o.kind], o.job, err)
		}
	}
	return nil
}

// replayTSDB drives the store the engine writes through: one Append
// per run and one Commit per ingest request, Finish on label, Drop on
// close, and the stored-execution read. Memory-only workloads have no
// store and record nothing.
func replayTSDB(env *onlineEnv, ops []op, lt *layerTimes) error {
	dir, err := env.newDataDir()
	if err != nil || dir == "" {
		return err
	}
	st, err := tsdb.OpenOptions(dir, tsdb.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	for _, o := range ops {
		var err error
		t0 := time.Now()
		switch o.kind {
		case opRegister:
			err = st.Register(o.job, jobNodes)
		case opIngest:
			for _, r := range o.batch {
				for _, run := range r.exec.runs[r.chunk] {
					if err = st.Append(r.job, run.Metric, run.Node, run.Offsets, run.Values); err != nil {
						break
					}
				}
			}
			if err == nil {
				err = st.Commit()
			}
		case opLabel:
			err = st.Finish(o.job, apps.Label{App: o.app, Input: o.input}.String())
		case opClose:
			err = st.Drop(o.job)
		case opStored:
			_, err = st.ExecutionSeries(o.job)
		default:
			continue
		}
		lt.add(o.kind, time.Since(t0))
		if err != nil {
			return fmt.Errorf("tsdb %s %s: %w", opNames[o.kind], o.job, err)
		}
	}
	return nil
}

// replayCore drives the recognition core the engine sits on: a Stream
// per job fed run by run, Recognize under the shared dictionary's
// read lock, and Learn on label.
func replayCore(env *onlineEnv, ops []op, lt *layerTimes) error {
	dict, err := loadDict(env.dictPath)
	if err != nil {
		return err
	}
	sd := core.Share(dict)
	streams := make(map[string]*core.Stream)
	var top string
	for _, o := range ops {
		s := streams[o.job]
		t0 := time.Now()
		switch o.kind {
		case opRegister:
			sd.Read(func(d *core.Dictionary) { streams[o.job] = core.NewStream(d, jobNodes) })
		case opIngest:
			for _, r := range o.batch {
				js := streams[r.job]
				for _, run := range r.exec.runs[r.chunk] {
					js.FeedRun(run.Metric, run.Node, run.Offsets, run.Values)
					lt.samples += int64(len(run.Values))
				}
			}
		case opResult:
			sd.Read(func(*core.Dictionary) { top = s.Recognize().Top() })
		case opLabel:
			sd.Learn(s, apps.Label{App: o.app, Input: o.input})
			delete(streams, o.job)
		case opClose:
			delete(streams, o.job)
		default:
			continue
		}
		lt.add(o.kind, time.Since(t0))
	}
	_ = top
	return nil
}

// encodeCodec times the workload's own ingest bodies through the
// codec: the wire run frames for binary workloads, encoding/json row
// form otherwise.
func encodeCodec(env *onlineEnv, ops []op, rep *report) error {
	var enc, dec time.Duration
	var samples, size int64
	var frames, payload []byte
	var offs []time.Duration
	var vals []float64
	for _, o := range ops {
		if o.kind != opIngest {
			continue
		}
		for _, r := range o.batch {
			samples += int64(r.exec.count[r.chunk])
		}
		if env.w.durable {
			t0 := time.Now()
			frames, payload = encodeRuns(frames, payload, o.batch)
			enc += time.Since(t0)
			t0 = time.Now()
			_, _, err := wire.WalkFrames(frames, func(p []byte) error {
				rec, err := wire.DecodeRunInto(p, offs[:0], vals[:0])
				offs, vals = rec.Offs, rec.Vals
				return err
			})
			dec += time.Since(t0)
			if err != nil {
				return fmt.Errorf("decode run frames: %w", err)
			}
			size += int64(len(frames))
		} else {
			in := jsonIngest{rowBatches(o.batch)}
			t0 := time.Now()
			body, err := json.Marshal(in)
			enc += time.Since(t0)
			if err != nil {
				return err
			}
			var out jsonIngest
			t0 = time.Now()
			err = json.Unmarshal(body, &out)
			dec += time.Since(t0)
			if err != nil {
				return fmt.Errorf("decode JSON rows: %w", err)
			}
			size += int64(len(body))
		}
	}
	if samples == 0 {
		return checkf("the replayed prefix holds no ingest request")
	}
	rep.set("codec.encode_ns_per_sample", float64(enc)/float64(samples))
	rep.set("codec.decode_ns_per_sample", float64(dec)/float64(samples))
	rep.set("codec.bytes_per_sample", float64(size)/float64(samples))
	return nil
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || !e.Type().IsRegular() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// selfCPU is the benchmark process's user+system CPU time.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// gcPauseNs is the benchmark process's total stop-the-world GC pause.
func gcPauseNs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.PauseTotalNs
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
