package monitor

// Graceful degradation, disk-full read-only mode, and overload
// control.
//
// The durable store can poison itself at runtime (a WAL write or
// fsync failure): every further store mutation refuses until a reopen
// replays the disk. Rather than turning those refusals into ingest
// failures, the engine degrades: the store is fenced off, ingest and
// every read keep working memory-only, health reporting flips to
// "degraded" with the triggering error, and a supervised background
// probe keeps attempting to reopen the store directory. When a reopen
// succeeds the engine returns to durable mode — jobs registered from
// then on are WAL-backed again, while jobs that lived through the
// outage stay memory-only (their streams hold samples the store never
// saw; resuming their WAL would persist a lie).
//
// A full disk (ENOSPC/EDQUOT) is different: nothing is corrupt, the
// condition is transient, and every byte already acknowledged is
// intact. The engine enters read-only mode instead — the store stays
// open and keeps serving every read, while writes are SHED with the
// retryable ErrReadOnly (HTTP 503 upstream) rather than absorbed
// memory-only; shedding keeps each stream in lockstep with its WAL,
// so when the probe sees disk headroom again (diskRecovered) the
// store is reopened and the surviving jobs resume fully durable.
//
// Overload control is a separate, engine-level concern: AcquireIngest
// bounds the bytes and batch count admitted concurrently, so a flood
// of oversized ingest requests degrades into fast, explicit shedding
// (HTTP 429 upstream) instead of unbounded memory growth.

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/tsdb"
)

// Store modes. The mode gates every store write: only ModeRW touches
// the store. A degraded engine keeps serving from memory; a readonly
// engine keeps the store open for reads and sheds writes until the
// disk has space again.
const (
	storeModeNone     int32 = iota // no store attached
	storeModeRW                    // healthy, durable
	storeModeDegraded              // store poisoned; memory-only until reopened
	storeModeReadonly              // disk full; store serves reads, writes shed
)

// Health status strings, the GET /v1/health vocabulary.
const (
	StatusHealthy  = "healthy"
	StatusDegraded = "degraded"
	StatusReadonly = "readonly"
)

// DefaultStoreProbeInterval is how often a degraded engine attempts to
// reopen its store.
const DefaultStoreProbeInterval = 15 * time.Second

// Default ingest admission bounds; see Engine.MaxIngestBytes.
const (
	DefaultMaxIngestBytes   = 64 << 20
	DefaultMaxIngestBatches = 256
)

// HealthInfo is the engine's health snapshot — the GET /v1/health
// response body.
type HealthInfo struct {
	// Status is "healthy", "degraded" (the durable store failed and a
	// background probe is attempting to reopen it; ingest and reads
	// continue memory-only), or "readonly" (writes are being shed —
	// either the store's disk is full, see Disk, or the ingest
	// admission gate is saturated).
	Status string `json:"status"`
	// Error is the triggering store error while degraded or readonly.
	Error string `json:"error,omitempty"`
	// DegradedForS is how long the engine has been degraded.
	DegradedForS float64 `json:"degraded_for_s,omitempty"`
	// StoreReopenAttempts / StoreReopens count probe activity since the
	// engine started.
	StoreReopenAttempts int64 `json:"store_reopen_attempts,omitempty"`
	StoreReopens        int64 `json:"store_reopens,omitempty"`
	// Ingest admission gate occupancy and lifetime shed count.
	IngestInflightBytes   int64 `json:"ingest_inflight_bytes"`
	IngestInflightBatches int64 `json:"ingest_inflight_batches"`
	IngestShedTotal       int64 `json:"ingest_shed_total"`
	// Disk is the durable store's disk state. Present when the store
	// has a configured low-space watermark or is in read-only mode;
	// omitted otherwise (and always for store-less engines).
	Disk *DiskHealth `json:"disk,omitempty"`
}

// DiskHealth is the disk section of HealthInfo.
type DiskHealth struct {
	// FreeBytes is the space available to the store, as reported by
	// the filesystem; -1 when the platform cannot report it.
	FreeBytes int64 `json:"free_bytes"`
	// LowWatermarkBytes is the configured proactive flush-refusal
	// watermark (StoreOptions.DiskLowBytes); 0 when unset.
	LowWatermarkBytes int64 `json:"low_watermark_bytes"`
	// ReadOnly reports disk-full read-only mode: every read keeps
	// serving, writes answer with a retryable error until the
	// background probe sees space freed and resumes durable mode.
	ReadOnly bool `json:"read_only"`
}

// Health snapshots the engine's health. Degraded wins over readonly:
// an operator fixing a dead disk should not have the signal masked by
// a concurrent traffic spike or a full-but-working disk.
func (e *Engine) Health() HealthInfo {
	out := HealthInfo{
		Status:                StatusHealthy,
		StoreReopenAttempts:   e.met.probeAttempts.Load(),
		StoreReopens:          e.met.probeReopens.Load(),
		IngestInflightBytes:   e.inflightBytes.Load(),
		IngestInflightBatches: e.inflightBatches.Load(),
		IngestShedTotal:       e.met.shed.Load(),
	}
	if e.saturated() {
		out.Status = StatusReadonly
	}
	mode := e.storeMode.Load()
	if mode == storeModeReadonly {
		out.Status = StatusReadonly
		e.healthMu.Lock()
		if e.healthErr != nil {
			out.Error = e.healthErr.Error()
		}
		e.healthMu.Unlock()
	}
	if mode == storeModeDegraded {
		out.Status = StatusDegraded
		e.healthMu.Lock()
		if e.healthErr != nil {
			out.Error = e.healthErr.Error()
		}
		if !e.degradedSince.IsZero() {
			out.DegradedForS = time.Since(e.degradedSince).Seconds()
		}
		e.healthMu.Unlock()
	}
	out.Disk = e.diskHealth(e.store.Load(), mode)
	return out
}

// diskHealth builds the disk section of /v1/health and the metrics
// store section, or nil. The section appears once disk state is
// interesting — a store with a configured watermark or in read-only
// mode — so default bodies stay stable (and byte-reproducible) across
// machines.
func (e *Engine) diskHealth(st *tsdb.Store, mode int32) *DiskHealth {
	if st == nil || (e.storeOpts.DiskLowBytes <= 0 && mode != storeModeReadonly) {
		return nil
	}
	d := &DiskHealth{FreeBytes: -1, LowWatermarkBytes: e.storeOpts.DiskLowBytes, ReadOnly: mode == storeModeReadonly}
	if free, ok := st.DiskFree(); ok {
		d.FreeBytes = int64(min(free, uint64(math.MaxInt64)))
	}
	return d
}

// healthStatus is the one-word form for Stats.
func (e *Engine) healthStatus() string {
	switch e.storeMode.Load() {
	case storeModeDegraded:
		return StatusDegraded
	case storeModeReadonly:
		return StatusReadonly
	}
	if e.saturated() {
		return StatusReadonly
	}
	return StatusHealthy
}

// saturated reports whether the ingest gate is currently full.
func (e *Engine) saturated() bool {
	if maxN := e.ingestBatchCap(); maxN > 0 && e.inflightBatches.Load() >= maxN {
		return true
	}
	if maxB := e.ingestByteCap(); maxB > 0 && e.inflightBytes.Load() >= maxB {
		return true
	}
	return false
}

func (e *Engine) ingestByteCap() int64 {
	if e.MaxIngestBytes != 0 {
		return e.MaxIngestBytes
	}
	return DefaultMaxIngestBytes
}

func (e *Engine) ingestBatchCap() int64 {
	if e.MaxIngestBatches != 0 {
		return int64(e.MaxIngestBatches)
	}
	return DefaultMaxIngestBatches
}

// AcquireIngest admits one ingest request of approximately `bytes`
// payload bytes into the engine, or refuses with ErrOverloaded when
// admission would exceed MaxIngestBytes / MaxIngestBatches. On success
// the returned release must be called exactly once when the request
// finishes (it tolerates duplicates). The HTTP adapter acquires before
// decoding, so an overload answers from the request headers alone.
func (e *Engine) AcquireIngest(bytes int64) (release func(), err error) {
	if bytes < 0 {
		bytes = 0
	}
	maxB, maxN := e.ingestByteCap(), e.ingestBatchCap()
	if b := e.inflightBytes.Add(bytes); maxB > 0 && b > maxB {
		e.inflightBytes.Add(-bytes)
		e.met.shed.Add(1)
		return nil, fmt.Errorf("%w: %d ingest bytes in flight (cap %d)", ErrOverloaded, b-bytes, maxB)
	}
	if n := e.inflightBatches.Add(1); maxN > 0 && n > maxN {
		e.inflightBatches.Add(-1)
		e.inflightBytes.Add(-bytes)
		e.met.shed.Add(1)
		return nil, fmt.Errorf("%w: %d ingest requests in flight (cap %d)", ErrOverloaded, n-1, maxN)
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			e.inflightBytes.Add(-bytes)
			e.inflightBatches.Add(-1)
		})
	}, nil
}

// --- degradation ------------------------------------------------------

// storeFor resolves the store a job's writes should go to, or nil when
// the job runs memory-only: the engine must be in durable mode AND the
// job must have been registered against the currently attached store
// incarnation (a job that lived through an outage stays memory-only —
// its stream holds samples the reopened store never saw). Called with
// j.mu held (j.st is guarded by it).
func (e *Engine) storeFor(j *job) *tsdb.Store {
	if e.storeMode.Load() != storeModeRW {
		return nil
	}
	st := e.store.Load()
	if st == nil || j.st != st {
		return nil
	}
	return st
}

// noteStoreError classifies a store write failure. It returns true
// when the engine absorbs the error — the store was gracefully closed
// under the caller (CloseStore race) or has poisoned itself (the
// engine degrades and the caller proceeds memory-only) — and false
// when the error is the caller's to surface (validation, unknown job,
// a failed flush on a healthy store, or a disk-full write: the engine
// enters read-only mode and the caller sheds the write with a
// retryable error rather than acknowledging it memory-only).
func (e *Engine) noteStoreError(st *tsdb.Store, err error) bool {
	if errors.Is(err, tsdb.ErrClosed) {
		return true
	}
	if errors.Is(err, tsdb.ErrReadOnly) || errors.Is(err, tsdb.ErrDiskFull) || st.ReadOnly() != nil {
		e.readonlyStore(err)
		return false
	}
	if st.Failed() != nil {
		e.degradeStore(err)
		return true
	}
	return false
}

// storeErr wraps a store write failure for callers. Disk-full
// failures additionally carry the retryable ErrReadOnly identity, so
// the HTTP adapter can answer 503 + Retry-After instead of 500.
func storeErr(op string, err error) error {
	if errors.Is(err, ErrReadOnly) {
		return fmt.Errorf("%w %s: %w", ErrStore, op, err)
	}
	if errors.Is(err, tsdb.ErrReadOnly) || errors.Is(err, tsdb.ErrDiskFull) {
		return fmt.Errorf("%w %s: %w: %v", ErrStore, op, ErrReadOnly, err)
	}
	return fmt.Errorf("%w %s: %v", ErrStore, op, err)
}

// shedWrite reports the retryable shed error when the engine's store
// is in read-only mode and the write would need it: engine-level
// writes (j == nil) and writes of jobs backed by the readonly store
// are shed; a job already running memory-only proceeds as before.
// Called with j.mu held when j is non-nil.
func (e *Engine) shedWrite(j *job) error {
	if e.storeMode.Load() != storeModeReadonly {
		return nil
	}
	if j != nil && (j.st == nil || j.st != e.store.Load()) {
		return nil
	}
	return ErrReadOnly
}

// readonlyStore fences writes off and starts the resume probe; the
// store stays attached and keeps serving reads. Only the first caller
// transitions.
func (e *Engine) readonlyStore(err error) {
	if !e.storeMode.CompareAndSwap(storeModeRW, storeModeReadonly) {
		return
	}
	e.healthMu.Lock()
	e.healthErr = err
	e.healthMu.Unlock()
	// Exactly one event + counter bump per transition: the CAS above
	// admits a single caller.
	e.met.storeReadonly.Add(1)
	e.logger().Warn("store entered read-only mode; shedding writes",
		"event", "store_readonly", "error", err.Error())
	e.startProbe()
}

// degradeStore fences the store off and starts the reopen probe. Only
// the first caller transitions; the rest are no-ops.
func (e *Engine) degradeStore(err error) {
	if !e.storeMode.CompareAndSwap(storeModeRW, storeModeDegraded) {
		return
	}
	e.healthMu.Lock()
	e.healthErr = err
	e.degradedSince = time.Now()
	e.healthMu.Unlock()
	e.met.storeDegraded.Add(1)
	e.logger().Error("store degraded; serving memory-only",
		"event", "store_degrade", "error", err.Error())
	e.startProbe()
}

// startProbe launches the background reopen loop, once.
func (e *Engine) startProbe() {
	e.probeMu.Lock()
	defer e.probeMu.Unlock()
	if e.probeStop != nil {
		return
	}
	stop := make(chan struct{})
	e.probeStop = stop
	e.probeWG.Add(1)
	go e.probeLoop(stop)
}

// stopProbe halts the probe (if running) and waits for it to exit.
func (e *Engine) stopProbe() {
	e.probeMu.Lock()
	if e.probeStop != nil {
		close(e.probeStop)
		e.probeStop = nil
	}
	e.probeMu.Unlock()
	e.probeWG.Wait()
}

func (e *Engine) probeLoop(stop chan struct{}) {
	defer func() {
		e.probeMu.Lock()
		if e.probeStop == stop {
			e.probeStop = nil
		}
		e.probeMu.Unlock()
		e.probeWG.Done()
	}()
	interval := e.StoreProbeInterval
	if interval <= 0 {
		interval = DefaultStoreProbeInterval
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if e.attemptReopen() {
				return
			}
		}
	}
}

// attemptReopen closes the unhealthy store and reopens its directory.
// It returns true when the probe's job is over — the reopen succeeded,
// or the store was detached underneath it. The write lock on
// storeReadMu excludes every reader for the close/munmap + reopen
// window, so no mapped segment view is torn down mid-read.
func (e *Engine) attemptReopen() bool {
	e.met.probeAttempts.Add(1)
	mode := e.storeMode.Load()
	switch mode {
	case storeModeDegraded:
	case storeModeReadonly:
		// The readonly store is still open and serving reads; don't
		// bounce it until the disk has real headroom again, so the
		// engine can't flap at the edge of full.
		st := e.store.Load()
		if st == nil {
			return true
		}
		if !e.diskRecovered(st) {
			return false
		}
	default:
		return true
	}
	e.storeReadMu.Lock()
	defer e.storeReadMu.Unlock()
	if m := e.storeMode.Load(); m != mode {
		// CloseStore (or a concurrent transition) got here first.
		return m != storeModeDegraded && m != storeModeReadonly
	}
	old := e.store.Swap(nil)
	if old != nil {
		// Unhealthy close: flush and sync are skipped (crash semantics),
		// but descriptors, mappings, and the directory flock release.
		old.Close()
	}
	st, err := tsdb.OpenOptions(e.storeDir, e.storeOpts)
	if err != nil {
		// The old store is gone; whichever mode we came from, the
		// engine is now fully degraded — memory-only, probe still
		// trying.
		e.storeMode.Store(storeModeDegraded)
		e.healthMu.Lock()
		e.healthErr = err
		if e.degradedSince.IsZero() {
			e.degradedSince = time.Now()
		}
		e.healthMu.Unlock()
		if mode == storeModeReadonly {
			// readonly → degraded is a real transition (reads are gone
			// too); repeated failed reopens while already degraded are
			// not, and stay at debug level.
			e.met.storeDegraded.Add(1)
			e.logger().Error("store degraded; serving memory-only",
				"event", "store_degrade", "error", err.Error())
		} else {
			e.logger().Debug("store reopen attempt failed",
				"event", "store_reopen_failed", "error", err.Error())
		}
		return false
	}
	if mode == storeModeReadonly {
		// Writes were shed for the whole readonly window, so the
		// replayed store and the engine-side streams are still in
		// lockstep: re-pin surviving jobs to the new incarnation and
		// stay durable. Anything the engine no longer tracks is
		// dropped.
		for _, lj := range st.Live() {
			repinned := false
			if j := e.getJob(lj.ID); j != nil {
				j.mu.Lock()
				if j.st == old && !j.done {
					j.st = st
					repinned = true
				}
				j.mu.Unlock()
			}
			if !repinned {
				st.Drop(lj.ID)
			}
		}
	} else {
		// Jobs replayed from the WAL lived through the outage: their
		// engine-side streams hold samples the store never saw, so
		// resuming their WAL entries would persist a divergent history.
		// Drop them from the store — their streams keep serving
		// memory-only (storeFor never resolves them: their j.st is a
		// dead pointer).
		for _, lj := range st.Live() {
			st.Drop(lj.ID)
		}
	}
	e.store.Store(st)
	e.storeMode.Store(storeModeRW)
	e.healthMu.Lock()
	e.healthErr = nil
	e.degradedSince = time.Time{}
	e.healthMu.Unlock()
	e.met.probeReopens.Add(1)
	e.met.storeHealed.Add(1)
	e.logger().Info("store reopened; durable mode resumed",
		"event", "store_heal", "from", modeName(mode))
	return true
}

// diskRecovered reports whether the store's disk has enough headroom
// to leave read-only mode: at least the configured watermark, and
// never less than a 1 MiB floor — resuming into an immediately-full
// disk would just bounce straight back. An unknown free-space reading
// errs toward attempting the resume; the next append settles it.
func (e *Engine) diskRecovered(st *tsdb.Store) bool {
	free, ok := st.DiskFree()
	if !ok {
		return true
	}
	floor := uint64(1 << 20)
	if wm := e.storeOpts.DiskLowBytes; wm > 0 && uint64(wm) > floor {
		floor = uint64(wm)
	}
	return free >= floor
}

// Close shuts the engine down: the reopen probe is stopped and the
// store (when attached) is flushed and closed. Live jobs stay readable
// in memory; the engine may keep serving non-durable traffic.
func (e *Engine) Close() error { return e.CloseStore() }
