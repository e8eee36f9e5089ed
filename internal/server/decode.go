package server

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/efd/monitor"
)

// decoder is the pooled per-request decode state. Every route that
// takes a body reads it once into body; POST /v1/samples then decodes
// it in place: the binary path into one offset/value arena and its
// run batches (binary.go), the JSON path into one sample arena and
// its batches (scanSamples). All of it is reused across requests, so
// a warmed server decodes a steady workload without growing anything.
type decoder struct {
	body []byte

	// application/x-efd-runs
	offs []time.Duration
	vals []float64
	runs []monitor.RunBatch

	// JSON samples: the arena every batch's Samples slices into, and
	// the metric names seen so far (scanSamples).
	samples []monitor.Sample
	batches []monitor.Batch
	metrics map[string]string
}

// decoderPool is how many idle decoders a server keeps: enough for
// the concurrent ingests of a busy server, few enough that buffers
// grown by rare huge bodies do not pin much memory.
const decoderPool = 16

// decoder takes a decoder from the server's pool. The pool is a
// buffered channel rather than a sync.Pool because the race detector
// makes a sync.Pool drop items at random, and a warmed ingest must
// not allocate per sample in either build.
func (s *Server) decoder() *decoder {
	select {
	case d := <-s.decoders:
		return d
	default:
		return new(decoder)
	}
}

// release returns d to the pool, or drops it when the pool is full.
// The batch slices alias the arenas and pin job IDs, so they are
// cleared; the arenas and the intern table are kept.
func (s *Server) release(d *decoder) {
	clear(d.runs)
	clear(d.batches)
	d.runs, d.batches = d.runs[:0], d.batches[:0]
	select {
	case s.decoders <- d:
	default:
	}
}

// readBody reads the request body, capped at limit bytes, into the
// pooled buffer. An oversized body answers 413 and a failed read 400;
// either way readBody reports false and the response is written.
func (d *decoder) readBody(w http.ResponseWriter, r *http.Request, limit int64) bool {
	body := http.MaxBytesReader(w, r.Body, limit)
	d.body = d.body[:0]
	for {
		if len(d.body) == cap(d.body) {
			d.body = append(d.body, 0)[:len(d.body)]
		}
		n, err := body.Read(d.body[len(d.body):cap(d.body)])
		d.body = d.body[:len(d.body)+n]
		if err == io.EOF {
			return true
		}
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				httpError(w, http.StatusRequestEntityTooLarge, codePayloadTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			} else {
				httpError(w, http.StatusBadRequest, codeBadRequest, "read body: %v", err)
			}
			return false
		}
	}
}

// readJSON reads the request body and decodes it into v with
// json.Unmarshal, which rejects trailing data after the value. It
// reports false once it has answered 413 or 400.
func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	d := s.decoder()
	defer s.release(d)
	if !d.readBody(w, r, s.MaxBodyBytes) {
		return false
	}
	if err := json.Unmarshal(d.body, v); err != nil {
		httpError(w, http.StatusBadRequest, codeBadRequest, "bad JSON: %v", err)
		return false
	}
	return true
}

// decodeSamples decodes a JSON POST /v1/samples body into d.batches
// and reports whether it used the single-job form. A body in the
// canonical shape takes scanSamples; any other body, errors included,
// is decoded by json.Unmarshal into an ingestRequest, so acceptance,
// results and error messages are encoding/json's.
func (d *decoder) decodeSamples() (single bool, err error) {
	if single, ok := d.scanSamples(); ok {
		return single, nil
	}
	d.batches = d.batches[:0]
	var req ingestRequest
	if err := json.Unmarshal(d.body, &req); err != nil {
		return false, err
	}
	d.batches = append(d.batches, req.Batches...)
	if req.JobID != "" || len(req.Samples) > 0 {
		d.batches = append(d.batches, sampleBatch{JobID: req.JobID, Samples: req.Samples})
	}
	return len(req.Batches) == 0, nil
}

// scanSamples is the single-pass decoder of the canonical ingest body:
// the shape efd/client and forwarders marshal, in the single-job form
// {"job_id", "samples"} or the multi-job form {"batches"}. It reports
// ok=false, leaving d.batches to be reset, for anything outside the
// subset in which it provably agrees with json.Unmarshal:
//
//   - keys are exactly the lower-case field names, each at most once
//     per object (encoding/json also folds case, ignores unknown keys
//     and lets a repeated key overwrite part of the earlier value);
//   - strings hold no escapes, control or non-ASCII bytes (encoding/json
//     unescapes them and replaces invalid UTF-8);
//   - numbers match the JSON grammar and parse with strconv, exactly as
//     encoding/json parses them; node must be a plain decimal int;
//   - no null anywhere, nothing but whitespace after the object.
//
// Samples land in one reused arena; the single-job form's batch goes
// after the multi-job batches, as in decodeSamples. Metric names are
// interned, so a warmed decoder allocates one string per batch (the
// job ID) and nothing per sample.
func (d *decoder) scanSamples() (single, ok bool) {
	d.samples, d.batches = d.samples[:0], d.batches[:0]
	sc := scanner{buf: d.body}
	job, samples, ok := d.scanJob(&sc, true)
	sc.ws()
	if !ok || sc.pos != len(sc.buf) {
		return false, false
	}
	single = len(d.batches) == 0
	if len(job) > 0 || len(samples) > 0 {
		d.batches = append(d.batches, monitor.Batch{JobID: string(job), Samples: samples})
	}
	return single, true
}

// scanJob scans a {"job_id", "samples"} object, at the top level also
// with "batches", whose elements it appends to d.batches. The samples
// are sliced off the arena once the object is complete: an arena
// reallocation copies them, and a slice taken earlier keeps the old
// array, which already holds them.
func (d *decoder) scanJob(sc *scanner, top bool) (job []byte, samples []monitor.Sample, ok bool) {
	start, end := 0, 0
	ok = sc.object(func(key []byte) (uint8, bool) {
		switch {
		case string(key) == "job_id":
			var ok bool
			job, ok = sc.str()
			return 1, ok
		case string(key) == "samples":
			start = len(d.samples)
			ok := d.scanSampleArray(sc)
			end = len(d.samples)
			return 2, ok
		case top && string(key) == "batches":
			return 4, sc.array(func() bool {
				job, samples, ok := d.scanJob(sc, false)
				d.batches = append(d.batches, monitor.Batch{JobID: string(job), Samples: samples})
				return ok
			})
		}
		return 0, false
	})
	return job, d.samples[start:end:end], ok
}

// scanSampleArray appends a JSON array of samples to the arena.
func (d *decoder) scanSampleArray(sc *scanner) bool {
	return sc.array(func() bool {
		var smp monitor.Sample
		ok := sc.object(func(key []byte) (uint8, bool) {
			var ok bool
			switch string(key) {
			case "metric":
				var name []byte
				if name, ok = sc.str(); ok {
					smp.Metric = d.intern(name)
				}
				return 1, ok
			case "node":
				smp.Node, ok = sc.int()
				return 2, ok
			case "offset_s":
				smp.OffsetS, ok = sc.float()
				return 4, ok
			case "value":
				smp.Value, ok = sc.float()
				return 8, ok
			}
			return 0, false
		})
		if ok {
			d.samples = append(d.samples, smp)
		}
		return ok
	})
}

// Bounds of the metric intern table: a name longer than maxInternLen
// is not interned, and the table is emptied once it holds
// maxInterned names, so a stream of distinct names costs a bounded
// table and one string each, like encoding/json.
const (
	maxInterned  = 1024
	maxInternLen = 128
)

// intern returns name as a string the engine may keep (streams and the
// tsdb memtable hold metric names), allocating only for a name not
// seen before.
func (d *decoder) intern(name []byte) string {
	if s, ok := d.metrics[string(name)]; ok {
		return s
	}
	s := string(name)
	if len(name) <= maxInternLen {
		if d.metrics == nil || len(d.metrics) >= maxInterned {
			d.metrics = make(map[string]string)
		}
		d.metrics[s] = s
	}
	return s
}

// scanner is a cursor over a JSON body for scanSamples. Each method
// skips leading whitespace, consumes one token and reports false when
// the next token is not the one asked for.
type scanner struct {
	buf []byte
	pos int
}

// ws skips JSON whitespace.
func (sc *scanner) ws() {
	for sc.pos < len(sc.buf) {
		switch sc.buf[sc.pos] {
		case ' ', '\t', '\n', '\r':
			sc.pos++
		default:
			return
		}
	}
}

// consume consumes the structural character c.
func (sc *scanner) consume(c byte) bool {
	sc.ws()
	if sc.pos < len(sc.buf) && sc.buf[sc.pos] == c {
		sc.pos++
		return true
	}
	return false
}

// object scans an object, handing each key to field, which scans the
// value and returns the key's bit (0 for an unknown key). A repeated
// bit fails the scan.
func (sc *scanner) object(field func(key []byte) (bit uint8, ok bool)) bool {
	if !sc.consume('{') {
		return false
	}
	if sc.consume('}') {
		return true
	}
	var seen uint8
	for {
		key, ok := sc.str()
		if !ok || !sc.consume(':') {
			return false
		}
		bit, ok := field(key)
		if !ok || bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		if !sc.consume(',') {
			return sc.consume('}')
		}
	}
}

// array scans an array, calling elem for each element.
func (sc *scanner) array(elem func() bool) bool {
	if !sc.consume('[') {
		return false
	}
	if sc.consume(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !sc.consume(',') {
			return sc.consume(']')
		}
	}
}

// str scans a string of ASCII bytes from 0x20 up, without escapes,
// and returns its contents, a view into the body.
func (sc *scanner) str() ([]byte, bool) {
	if !sc.consume('"') {
		return nil, false
	}
	for i := sc.pos; i < len(sc.buf); i++ {
		switch c := sc.buf[i]; {
		case c == '"':
			s := sc.buf[sc.pos:i]
			sc.pos = i + 1
			return s, true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// number scans a literal of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, which is stricter
// than strconv's: no '+', 'Inf', hex, underscores or bare '.'.
func (sc *scanner) number() ([]byte, bool) {
	sc.ws()
	b, i := sc.buf, sc.pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	lit := b[sc.pos:i]
	sc.pos = i
	return lit, true
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// float scans a number as encoding/json decodes it into a float64:
// strconv.ParseFloat on the literal. Out-of-range literals fail.
func (sc *scanner) float() (float64, bool) {
	lit, ok := sc.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, err == nil
}

// int scans a number as encoding/json decodes it into an int: decimal
// digits only (a fraction or exponent fails), within int's range.
func (sc *scanner) int() (int, bool) {
	lit, ok := sc.number()
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(string(lit), 10, 0)
	return int(n), err == nil
}
