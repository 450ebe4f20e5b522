// httpobs.go is the instrument middleware wrapping the daemon's mux: every
// request gets an id, its endpoint class, RED metrics (rate, errors,
// duration), a flight-recorder summary, and — when the operator enabled
// -access-log — one JSONL audit line. It sits OUTSIDE recoverMiddleware so
// even a recovered panic is counted and auditable as the 500 it became.
package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"sqlciv/internal/obs"
)

// RequestIDHeader carries the server-assigned request id back to the
// client; quote it to find the request in the audit log and flight
// recorder.
const RequestIDHeader = "X-Sqlciv-Request"

// reqRecord is the per-request scratchpad threaded through the handlers via
// context: writeError stamps the error code, the analyze/submit handlers
// attach the job, and the middleware reads it all back when the response is
// done.
type reqRecord struct {
	id       string
	endpoint string
	tenant   string
	errCode  string
	job      *Job
}

type reqKey struct{}

func recFrom(r *http.Request) *reqRecord {
	rec, _ := r.Context().Value(reqKey{}).(*reqRecord)
	return rec
}

// statusWriter captures the response status for the middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// countingReader counts request-body bytes as the handler reads them.
type countingReader struct {
	r io.ReadCloser
	n atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingReader) Close() error { return c.r.Close() }

// classifyEndpoint maps a request onto a bounded endpoint label set, so
// metric cardinality cannot grow with client-controlled paths.
func classifyEndpoint(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/analyze":
		return "/v1/analyze"
	case p == "/v1/jobs":
		return "/v1/jobs"
	case strings.HasPrefix(p, "/v1/jobs/"):
		return "/v1/jobs/{id}"
	case p == "/v1/pack":
		return "/v1/pack"
	case p == "/healthz":
		return "/healthz"
	case p == "/metrics":
		return "/metrics"
	case p == "/debug/flight":
		return "/debug/flight"
	case strings.HasPrefix(p, "/debug"):
		return "/debug"
	case p == "/":
		return "index"
	}
	return "other"
}

// instrument is the outermost layer of Handler.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &reqRecord{
			id:       fmt.Sprintf("r%08d", s.nextReq.Add(1)),
			endpoint: classifyEndpoint(r),
			tenant:   orDefault(r.Header.Get(TenantHeader)),
		}
		body := &countingReader{r: r.Body}
		r.Body = body
		r = r.WithContext(context.WithValue(r.Context(), reqKey{}, rec))
		sw := &statusWriter{ResponseWriter: w}
		sw.Header().Set(RequestIDHeader, rec.id)
		s.metrics.inflight.Add(1)

		next.ServeHTTP(sw, r)

		s.metrics.inflight.Add(-1)
		dur := time.Since(start)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		ep := rec.endpoint
		s.metrics.requests.With(ep, strconv.Itoa(status)).Inc()
		s.metrics.requestSec.With(ep).ObserveDuration(dur)
		if n := body.n.Load(); n > 0 {
			s.metrics.requestBytes.With(ep).Add(n)
		}
		if rec.errCode != "" {
			s.metrics.errors.With(ep, rec.errCode).Inc()
		}
		breach := s.cfg.SLO > 0 && dur > s.cfg.SLO
		if breach {
			s.metrics.sloBreaches.With(ep).Inc()
		}

		// The flight recorder and audit log cover the API surface; scrapes
		// and debug pokes stay out of both.
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			return
		}
		entry := FlightEntry{
			ID:        rec.id,
			Kind:      "request",
			Time:      flightNow(),
			Tenant:    rec.tenant,
			Endpoint:  ep,
			Status:    status,
			Code:      rec.errCode,
			WallMS:    dur.Milliseconds(),
			SLOBreach: breach,
		}
		audit := auditRecord{
			TS:        entry.Time,
			Kind:      "request",
			ID:        rec.id,
			Tenant:    rec.tenant,
			Endpoint:  ep,
			Status:    status,
			Code:      rec.errCode,
			BytesIn:   body.n.Load(),
			WallMS:    entry.WallMS,
			SLOBreach: breach,
		}
		// A sync analyze carries its job's outcome on the request itself;
		// the job's bounded trace ring is eligible for promotion here. An
		// async submission only links the job id — the job records its own
		// flight entry and audit line when it finishes (see runJob).
		var ring *obs.RingSink
		if j := rec.job; j != nil {
			audit.JobID = j.id
			if ep == "/v1/analyze" {
				findings, degradations, queueMS := j.flightInfo()
				entry.Findings, entry.Degradations = findings, degradations
				entry.QueueMS = queueMS
				entry.Degraded = degradations > 0
				audit.Findings, audit.Degradations = findings, degradations
				audit.QueueMS = queueMS
				ring = j.ring
			}
		}
		audit.TraceRetained = entry.bad() && ring != nil
		s.flight.record(entry, ring)
		s.audit.write(audit)
	})
}
