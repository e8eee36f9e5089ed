// Command efdd serves a trained Execution Fingerprint Dictionary as an
// HTTP monitoring service: a thin adapter (internal/server) over the
// embeddable efd/monitor engine. API.md documents the v1 wire
// protocol; the typed efd/client SDK covers the full surface,
// including the binary columnar ingest encoding.
//
//	efdd -dict dict.json -addr :8080 -save dict.json -data-dir /var/lib/efdd
//
// An LDMS aggregator (or any telemetry forwarder) registers running
// jobs, streams their per-node samples, and queries recognition results
// two minutes into each job. Completed jobs can be labelled back into
// the dictionary; on SIGINT/SIGTERM the daemon shuts the listener down
// gracefully and, when -save is given, re-saves the dictionary
// (atomically, via a temp file + rename) so online-learned labels
// survive restarts.
//
// With -data-dir the daemon runs storage-backed (internal/tsdb):
// ingested samples are write-ahead logged before they are
// acknowledged, labelled jobs become immutable columnar segment files
// served and re-recognized over mmap, and a restart with the same
// directory replays the WAL so running jobs resume exactly where the
// previous process left them. Graceful shutdown flushes pending
// executions into segments before exiting.
//
// Observability (API.md "Observability"): the daemon logs through
// log/slog (-log-format text|json, -log-level), always registers the
// full metrics kit, and serves the Prometheus exposition on GET
// /metrics plus the slow-request ring on GET /v1/debug/slow. With
// -ops-addr the same surface — plus net/http/pprof — is served on a
// separate operations listener that can stay off the service's
// exposure. Every request carries an X-Efd-Trace ID (propagated from
// the caller or generated from a crypto-seeded generator).
package main

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/efd/monitor"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/tsdb"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintf(os.Stderr, "efdd: %v\n", err)
		os.Exit(1)
	}
}

// run is the daemon body, factored out of main so tests can drive it:
// it serves until the context is cancelled or SIGINT/SIGTERM arrives,
// then shuts down gracefully and re-saves the dictionary when -save is
// set. onListen, if non-nil, is called once every listener is up, with
// the bound service address and the bound -ops-addr address (empty
// when -ops-addr is not set).
func run(ctx context.Context, args []string, out io.Writer, onListen func(addr, opsAddr string)) error {
	fs := flag.NewFlagSet("efdd", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		dictPath = fs.String("dict", "dict.json", "trained dictionary (from `efd learn`)")
		addr     = fs.String("addr", ":8080", "listen address")
		maxJobs  = fs.Int("max-jobs", 4096, "maximum concurrently tracked jobs")
		savePath = fs.String("save", "", "path to re-save the dictionary on graceful shutdown (labels learned online are lost without it; typically the -dict path)")
		dataDir  = fs.String("data-dir", "", "durable telemetry store directory (WAL + segment files); jobs and their telemetry survive restarts")

		maxIngestMB      = fs.Int("max-ingest-mb", 64, "ingest admission cap: in-flight payload megabytes across concurrent requests; exceeding it sheds with 429 + Retry-After (-1: unlimited)")
		maxIngestBatches = fs.Int("max-ingest-batches", 256, "ingest admission cap: concurrent in-flight ingest requests (-1: unlimited)")
		diskLowMB        = fs.Int("disk-low-mb", 0, "disk headroom watermark in megabytes: segment flushes are refused while the store volume has less free space, and a disk-full read-only engine waits for at least this much before resuming durable writes (0: disabled)")

		logFormat = fs.String("log-format", "text", "structured log output format: text or json")
		logLevel  = fs.String("log-level", "info", "minimum log level: debug, info, warn, or error")
		opsAddr   = fs.String("ops-addr", "", "separate operations listener serving GET /metrics (Prometheus text exposition), /debug/pprof/, and /v1/debug/slow; empty disables")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("bad -log-level %q: %w", *logLevel, err)
	}
	hopts := &slog.HandlerOptions{Level: lvl}
	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(out, hopts)
	case "json":
		handler = slog.NewJSONHandler(out, hopts)
	default:
		return fmt.Errorf("bad -log-format %q (want text or json)", *logFormat)
	}
	logger := slog.New(handler)

	f, err := os.Open(*dictPath)
	if err != nil {
		return err
	}
	dict, err := core.Load(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("load dictionary: %w", err)
	}
	st := dict.Stats()
	logger.Info("dictionary loaded",
		"path", *dictPath, "keys", st.Keys, "labels", st.Labels, "depth", st.Depth)

	// The server is a thin HTTP adapter over the public monitoring
	// engine; everything the daemon does is available in-process via
	// efd/monitor.
	eng := monitor.New(dict)
	eng.Logger = logger
	eng.MaxJobs = *maxJobs
	if *maxIngestMB < 0 {
		eng.MaxIngestBytes = -1
	} else if *maxIngestMB > 0 {
		eng.MaxIngestBytes = int64(*maxIngestMB) << 20
	}
	if *maxIngestBatches != 0 {
		eng.MaxIngestBatches = *maxIngestBatches
	}
	srv := server.NewEngine(eng)

	// The observability plane: one registry carries the engine, tsdb,
	// and HTTP families; the main listener serves it at GET /metrics
	// and -ops-addr (below) re-serves it off the request path. The
	// tracer seed comes from crypto/rand (constant fallback) — never
	// from the wall clock, which stays out of global state.
	reg := obs.NewRegistry()
	eng.EnableMetrics(reg)
	seed := uint64(0x9E3779B97F4A7C15)
	var sb [8]byte
	if _, err := crand.Read(sb[:]); err == nil {
		seed = binary.LittleEndian.Uint64(sb[:])
	}
	srv.EnableObs(reg, seed)

	if *dataDir != "" {
		opts := monitor.StoreOptions{}
		if *diskLowMB > 0 {
			opts.DiskLowBytes = int64(*diskLowMB) << 20
		}
		if _, err := eng.OpenStore(*dataDir, opts); err != nil {
			if errors.Is(err, tsdb.ErrLocked) {
				// The flock is per-directory, so this is almost always a
				// second efdd pointed at the same -data-dir. Name the
				// condition plainly; the generic wrapped error reads like
				// corruption.
				return fmt.Errorf("data directory %s is locked by another efdd process (or one that did not exit); refusing to share a telemetry store", *dataDir)
			}
			// Recovery already retried transient I/O failures and
			// quarantined what it could not read; an error here means
			// the store truly cannot open.
			return fmt.Errorf("open telemetry store %s: recovery impossible: %w", *dataDir, err)
		}
		// The engine itself logged the store_recovery (and any
		// store_quarantine) event through eng.Logger. List every
		// quarantine artifact on disk — this run's and any earlier
		// one's — so an operator tailing the startup log knows exactly
		// which files hold the evidence and how much of it there is.
		for _, q := range quarantineFiles(*dataDir) {
			logger.Warn("quarantined file", "path", q.path, "bytes", q.size)
		}
	}

	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		eng.CloseStore()
		return err
	}

	// The optional ops listener keeps scrapes, profiles, and debug
	// reads off the service listener (and off its timeouts): /metrics
	// for Prometheus, the full net/http/pprof surface, and the
	// slow-request ring. It is up before readiness is announced, so a
	// caller woken by "listening" (or onListen) finds every listener
	// bound.
	var opsSrv *http.Server
	var opsBound string
	if *opsAddr != "" {
		opsLn, err := net.Listen("tcp", *opsAddr)
		if err != nil {
			ln.Close()
			eng.CloseStore()
			return fmt.Errorf("ops listener: %w", err)
		}
		opsMux := http.NewServeMux()
		opsMux.Handle("/metrics", reg.Handler())
		opsMux.HandleFunc("/debug/pprof/", pprof.Index)
		opsMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		opsMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		opsMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		opsMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		opsMux.Handle("/v1/debug/slow", srv.DebugSlowHandler())
		opsSrv = &http.Server{Handler: opsMux, ReadHeaderTimeout: 5 * time.Second}
		opsBound = opsLn.Addr().String()
		logger.Info("ops listening", "addr", opsBound)
		go opsSrv.Serve(opsLn)
	}
	logger.Info("listening", "addr", ln.Addr().String())
	if onListen != nil {
		onListen(ln.Addr().String(), opsBound)
	}

	httpSrv := &http.Server{
		Handler: srv.Handler(),
		// Bound slow clients so a trickled header, a drip-fed body, or
		// an abandoned keep-alive cannot pin connection goroutines
		// forever. The read/write bounds are generous — a full batch
		// upload over a congested link fits in a minute — but finite.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      time.Minute,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	var exitErr error
	select {
	case err := <-serveErr:
		// Unexpected listener failure: still fall through to the save
		// below — exiting without it would drop every online-learned
		// label, the very bug -save exists to fix.
		exitErr = fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
		logger.Info("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// A shutdown timeout on a straggling connection is not fatal
		// to the save: SaveDictionary takes the dictionary read lock,
		// which excludes any in-flight Learn, so the snapshot is
		// consistent regardless.
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			exitErr = fmt.Errorf("shutdown: %w", err)
		} else {
			<-serveErr // Serve has returned http.ErrServerClosed
		}
	}
	if opsSrv != nil {
		// Ops requests are short (scrapes, profile pulls); an abrupt
		// close beats delaying the store flush behind a long profile.
		opsSrv.Close()
	}
	if eng.HasStore() {
		// Graceful-shutdown flush: pending finished executions land in
		// an immutable segment and the WAL is synced, so the next
		// start replays only still-running jobs.
		if err := eng.CloseStore(); err != nil {
			exitErr = errors.Join(exitErr, fmt.Errorf("close telemetry store: %w", err))
		} else {
			logger.Info("telemetry store flushed")
		}
	}
	if *savePath != "" {
		if err := saveDictionary(srv, *savePath); err != nil {
			// Join rather than replace: a failed save must not mask
			// the serve/shutdown error that took the daemon down.
			return errors.Join(exitErr, fmt.Errorf("save dictionary: %w", err))
		}
		logger.Info("dictionary saved", "path", *savePath)
	}
	return exitErr
}

// quarantineFile is one crash-recovery artifact in the data directory.
type quarantineFile struct {
	path string
	size int64
}

// quarantineFiles lists the store's quarantine artifacts: the torn-WAL
// tail (wal.quarantine) and checksum-failed segments (*.corrupt). Scan
// errors are swallowed — this is best-effort startup logging, and the
// store itself already opened successfully.
func quarantineFiles(dir string) []quarantineFile {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []quarantineFile
	for _, ent := range ents {
		name := ent.Name()
		if name != "wal.quarantine" && filepath.Ext(name) != ".corrupt" {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue
		}
		out = append(out, quarantineFile{path: filepath.Join(dir, name), size: info.Size()})
	}
	return out
}

// saveDictionary writes the (possibly online-extended) dictionary
// atomically: to a temp file in the destination directory, then rename.
// The destination's existing file mode is preserved (CreateTemp's 0600
// would otherwise tighten a shared dictionary on every restart).
func saveDictionary(srv *server.Server, path string) error {
	mode := os.FileMode(0644)
	if st, err := os.Stat(path); err == nil {
		mode = st.Mode().Perm()
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".efdd-save-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := srv.SaveDictionary(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Chmod(mode); err != nil {
		tmp.Close()
		return err
	}
	// Sync before rename: without it a crash shortly after shutdown
	// could leave a truncated dictionary behind the rename — the very
	// durability -save promises.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Fsync the directory so the rename itself survives a crash; the
	// synced temp file alone does not make the new name durable.
	if dirf, err := os.Open(dir); err == nil {
		dirf.Sync()
		dirf.Close()
	}
	return nil
}
