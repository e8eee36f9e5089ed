// Binary columnar ingest: POST /v1/samples with
// Content-Type: application/x-efd-runs.
//
// The body is a sequence of CRC-framed run records in the shared EFD
// wire encoding (internal/wire — the exact framing the tsdb WAL
// stores), one record per (job, metric, node) sample run:
//
//	[4B length][4B CRC-32C][type=2, job, metric, node, count,
//	 zigzag-varint offset deltas, raw float64 value bits]
//
// Each record lands as two columns that feed Engine.IngestRuns (and,
// in storage mode, the WAL) directly. The JSON path (decode.go) reads
// the body into the same pooled decoder and allocates nothing per
// sample either, but it parses two decimal numbers per sample and the
// engine regroups its rows into runs; here there is neither. A warmed
// server allocates close to nothing per request beyond the two
// per-run header strings. Decoding is bit-exact — float64 values
// round-trip by bits, never through text — so the resulting stream
// state is bit-identical to the same samples sent as JSON.
package server

import (
	"mime"
	"net/http"
	"strings"
	"time"

	"repro/efd/monitor"
	"repro/internal/obs"
	"repro/internal/wire"
)

// ContentTypeRuns is the media type of the binary columnar ingest
// encoding (defined with the codec in internal/wire).
const ContentTypeRuns = wire.ContentTypeRuns

// isRunsContentType matches the binary ingest media type, tolerating
// parameters (e.g. a charset some client framework insists on).
func isRunsContentType(ct string) bool {
	if ct == "" {
		return false
	}
	if mt, _, err := mime.ParseMediaType(ct); err == nil {
		return mt == ContentTypeRuns
	}
	return strings.ToLower(strings.TrimSpace(ct)) == ContentTypeRuns
}

// decodeRuns walks the body's frames into d.runs, grouping
// consecutive records of one job (the natural forwarder layout) into
// a single batch. All runs share one offset/value arena; after a
// request the arena is resized to the request's total sample count,
// so a steady workload decodes with zero arena growth.
func (d *decoder) decodeRuns() error {
	d.runs = d.runs[:0]
	used := 0
	total := 0
	_, _, err := wire.WalkFrames(d.body, func(payload []byte) error {
		// Decode into the arena tail. If the arena is full, append
		// reallocates: the new columns land in a fresh array while
		// earlier runs keep referencing the old one — correct either
		// way, and the arena is grown to `total` afterwards so the
		// next request of this size fits entirely.
		rec, err := wire.DecodeRunInto(payload, d.offs[used:used], d.vals[used:used])
		if err != nil {
			return err
		}
		n := len(rec.Vals)
		total += n
		if used+n <= cap(d.offs) && used+n <= cap(d.vals) {
			used += n
		}
		run := monitor.Run{Metric: rec.Metric, Node: rec.Node, Offsets: rec.Offs, Values: rec.Vals}
		if k := len(d.runs); k > 0 && d.runs[k-1].JobID == rec.Job {
			d.runs[k-1].Runs = append(d.runs[k-1].Runs, run)
		} else {
			d.runs = append(d.runs, monitor.RunBatch{JobID: rec.Job, Runs: nil})
			d.runs[len(d.runs)-1].Runs = append(d.runs[len(d.runs)-1].Runs, run)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if total > cap(d.offs) {
		d.offs = make([]time.Duration, 0, total)
		d.vals = make([]float64, 0, total)
	}
	return nil
}

// handleSamplesBinary is the application/x-efd-runs branch of
// POST /v1/samples. Semantics mirror the JSON multi-job form: all
// records validate before anything feeds, unknown jobs are reported
// alongside the accepted count, and one store commit acknowledges the
// request.
func (s *Server) handleSamplesBinary(w http.ResponseWriter, r *http.Request) {
	span := obs.SpanFrom(r.Context())
	var t0 time.Time
	if span != nil {
		t0 = time.Now()
	}
	d := s.decoder()
	defer s.release(d)
	if !d.readBody(w, r, s.MaxBodyBytes) {
		return
	}
	if len(d.body) == 0 {
		httpError(w, http.StatusBadRequest, codeBadRequest, "empty ingest request")
		return
	}
	if err := d.decodeRuns(); err != nil {
		httpError(w, http.StatusBadRequest, codeBadRequest, "bad run encoding: %v", err)
		return
	}
	if span != nil {
		span.RecordStage("decode", time.Since(t0))
		t0 = time.Now()
	}
	single := len(d.runs) == 1
	accepted, unknown, err := s.IngestRuns(d.runs)
	if span != nil {
		span.RecordStage("engine", time.Since(t0))
	}
	s.writeIngestOutcome(w, single, accepted, unknown, err)
}
