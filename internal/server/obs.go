// HTTP-layer observability: per-endpoint metrics, request tracing,
// and the slow-request debug surface.
//
// All of it is opt-in (EnableObs before Handler). When off, Handler
// registers the bare handlers — byte-identical responses, no extra
// headers — so the golden wire transcripts are unaffected. When on,
// every route is wrapped in one middleware that assigns (or
// propagates) an X-Efd-Trace ID, times the request, counts it into
// pre-registered per-route series (nothing formats labels per
// request), and feeds a ring of the slowest requests served at
// GET /v1/debug/slow.
package server

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// slowRingSize is how many slowest requests /v1/debug/slow retains.
const slowRingSize = 32

// serverObs is the server's observability state, nil until EnableObs.
type serverObs struct {
	reg    *obs.Registry
	tracer *obs.Tracer
	slow   *obs.SlowRing
}

// routeMetrics are one route's pre-registered series: counters per
// status class plus latency and byte instruments. Everything on the
// request path is a pointer chase and an atomic — no label
// formatting, no map lookups.
type routeMetrics struct {
	byClass   [6]*obs.Counter
	seconds   *obs.Histogram
	reqBytes  *obs.Counter
	respBytes *obs.Counter
}

func newRouteMetrics(reg *obs.Registry, route string) *routeMetrics {
	rm := &routeMetrics{}
	label := `route="` + route + `"`
	for c := 1; c <= 5; c++ {
		rm.byClass[c] = reg.Counter("efd_http_requests_total",
			label+`,code="`+strconv.Itoa(c)+`xx"`,
			"HTTP requests by route and status class")
	}
	rm.seconds = reg.Histogram("efd_http_request_seconds", label,
		"HTTP request latency", obs.ExpBuckets(1e-4, 4, 10))
	rm.reqBytes = reg.Counter("efd_http_request_bytes_total", label,
		"request body bytes received")
	rm.respBytes = reg.Counter("efd_http_response_bytes_total", label,
		"response body bytes sent")
	return rm
}

func (rm *routeMetrics) observe(status int, seconds float64, reqBytes, respBytes int64) {
	if c := status / 100; c >= 1 && c <= 5 {
		rm.byClass[c].Add(1)
	}
	rm.seconds.Observe(seconds)
	if reqBytes > 0 {
		rm.reqBytes.Add(reqBytes)
	}
	rm.respBytes.Add(respBytes)
}

// EnableObs turns the HTTP observability plane on: Handler will serve
// instrumented routes plus GET /metrics (Prometheus text exposition
// over reg) and GET /v1/debug/slow. The tracer is seeded explicitly —
// the server keeps no wall-clock-derived global state, so tests can
// pin trace IDs. Call before Handler and before serving traffic.
func (s *Server) EnableObs(reg *obs.Registry, traceSeed uint64) {
	s.obs = &serverObs{
		reg:    reg,
		tracer: obs.NewTracer(traceSeed),
		slow:   obs.NewSlowRing(slowRingSize),
	}
}

// statusWriter observes the status code and body bytes of a response.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// instrument wraps one route's handler in the observability
// middleware; with obs disabled it returns the handler untouched.
// rm is resolved once at registration, so the request path never
// touches a map.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	so := s.obs
	if so == nil {
		return h
	}
	rm := newRouteMetrics(so.reg, route)
	return func(w http.ResponseWriter, r *http.Request) {
		trace := r.Header.Get(obs.TraceHeader)
		if trace == "" {
			trace = so.tracer.NextID()
		}
		w.Header().Set(obs.TraceHeader, trace)
		span := obs.NewSpan(trace)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r.WithContext(obs.ContextWithSpan(r.Context(), span)))
		elapsed := time.Since(start)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		rm.observe(status, elapsed.Seconds(), r.ContentLength, sw.bytes)
		so.slow.Record(obs.SlowRequest{
			Trace:      trace,
			Method:     r.Method,
			Route:      route,
			Status:     status,
			DurationMS: float64(elapsed) / float64(time.Millisecond),
			Stages:     span.Stages(),
		})
	}
}

// slowResponse is the GET /v1/debug/slow body.
type slowResponse struct {
	Slowest []obs.SlowRequest `json:"slowest"`
}

// handleSlow serves the slow-request ring, slowest first.
func (s *Server) handleSlow(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	if s.obs == nil {
		httpError(w, http.StatusNotImplemented, codeUnimplemented, "observability is not enabled")
		return
	}
	snap := s.obs.slow.Snapshot()
	if snap == nil {
		snap = []obs.SlowRequest{}
	}
	writeJSON(w, http.StatusOK, slowResponse{Slowest: snap})
}

// DebugSlowHandler exposes the slow-request endpoint as a standalone
// handler for the ops listener.
func (s *Server) DebugSlowHandler() http.Handler { return http.HandlerFunc(s.handleSlow) }
