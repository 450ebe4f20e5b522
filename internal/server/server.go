// Package server is the analyzer as a service: a long-lived HTTP+JSON
// daemon (cmd/sqlcheckd) that fleets of CI jobs and IDE clients submit PHP
// applications to, instead of each paying the analyzer's warm-up and cache
// misses themselves.
//
// Endpoints:
//
//	POST /v1/analyze     submit an app, block, get the full findings /
//	                     degradations / stats payload (the wire mirror of
//	                     core.AppResult)
//	POST /v1/jobs        submit the same body asynchronously; returns the
//	                     job id immediately
//	GET  /v1/jobs/<id>   job status: live obs progress snapshot while it
//	                     runs (?wait=DURATION long-polls for completion),
//	                     the final report when done. Ids are unguessable
//	                     and visible only to the submitting tenant; a
//	                     finished report stays pollable for JobRetention,
//	                     then the janitor evicts it
//	GET  /healthz        liveness probe
//	GET  /metrics        Prometheus text exposition of the daemon's series
//	GET  /debug/server   queue depth, per-tenant budget trips, verdict-
//	                     cache hit rates, arena/intern census
//	GET  /debug/flight   flight recorder: recent request summaries and the
//	                     retained span traces of bad requests
//	GET  /debug/pprof/   the standard pprof handlers
//
// What makes the daemon worth running is the state it keeps resident: one
// shared policy.Checker whose in-memory fingerprint-keyed verdict memo
// stays warm across requests, one persistent vcache store flushed after
// every job, the process-global DFA/terminal-run interns, and the byte-
// class partition cache — so repeat submissions of unchanged apps answer
// mostly from fingerprint hits. Admission is bounded (fixed workers, fixed
// queue depth, 429 + Retry-After on overflow) and tenant-isolated (per-
// tenant in-flight caps and budget ceilings; an abusive tenant's oversized
// jobs degrade soundly to VerdictUnknown inside its own allowance).
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sqlciv/internal/grammar"
	"sqlciv/internal/obs"
	"sqlciv/internal/obs/metrics"
	"sqlciv/internal/policy"
	"sqlciv/internal/vcache"
)

// Config sizes one Server.
type Config struct {
	// Workers is the analysis worker pool size (default 2).
	Workers int
	// QueueDepth bounds the number of jobs waiting beyond the running ones
	// (default 2×Workers). A full queue refuses submissions with 429.
	QueueDepth int
	// MaxBodyBytes caps one request body (default 16 MiB).
	MaxBodyBytes int64
	// MaxRequestParallel caps the per-job worker count a request may ask
	// for (default 1: jobs parallelize across the pool, not inside it).
	MaxRequestParallel int
	// RetryAfter is the Retry-After hint on 429 responses (default 1s).
	RetryAfter time.Duration
	// JobRetention is how long a finished async job's status (and final
	// report) stays pollable before the janitor evicts it (default 5m).
	// Without eviction every completed job would accumulate forever.
	JobRetention time.Duration
	// MaxSessions bounds the resident incremental sessions kept for
	// requests that opt into incremental re-analysis (default 8). Beyond the
	// cap the least recently used session is evicted; an evicted app's next
	// submission simply runs cold again.
	MaxSessions int
	// SessionRetention is how long an idle incremental session survives
	// before the janitor sweeps it (default 15m). Sessions hold parse trees
	// and page memos for a whole application, so idle ones are the largest
	// resident state the daemon keeps.
	SessionRetention time.Duration
	// DefaultTenant configures unnamed and unknown tenants.
	DefaultTenant Tenant
	// Tenants configures named tenants (header X-Sqlciv-Tenant).
	Tenants map[string]Tenant
	// VerdictCache, when set, persists verdicts across jobs and restarts;
	// the server flushes it after every job and closes it on Close.
	VerdictCache *vcache.Store
	// FSRootPrefix, when nonempty, allows requests to name a resolver root
	// directory under this prefix instead of shipping inline sources.
	// Empty (the default) refuses every root request.
	FSRootPrefix string
	// SLO, when positive, is the latency objective: requests (and async job
	// runs) slower than this count as breaches and have their span traces
	// retained by the flight recorder. Zero disables SLO accounting.
	SLO time.Duration
	// AuditLog, when set, receives one JSON line per finished request and
	// per finished async job. Writes are serialized; nil disables the log.
	AuditLog io.Writer
	// FlightRecent sizes the flight recorder's ring of recent request/job
	// summaries (default 128); FlightRetain sizes the ring of bad entries
	// whose full span traces are retained (default 16); FlightTraceEvents
	// bounds the per-job span buffer (default 8192 events).
	FlightRecent      int
	FlightRetain      int
	FlightTraceEvents int
	// RuntimeSample is the runtime watchdog's sampling interval for the
	// go_* metrics series (default 5s).
	RuntimeSample time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = 2
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.MaxRequestParallel < 1 {
		c.MaxRequestParallel = 1
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.JobRetention <= 0 {
		c.JobRetention = 5 * time.Minute
	}
	if c.MaxSessions < 1 {
		c.MaxSessions = 8
	}
	if c.SessionRetention <= 0 {
		c.SessionRetention = 15 * time.Minute
	}
	if c.FlightRecent <= 0 {
		c.FlightRecent = 128
	}
	if c.FlightRetain <= 0 {
		c.FlightRetain = 16
	}
	if c.FlightTraceEvents <= 0 {
		c.FlightTraceEvents = 8192
	}
	return c
}

// StatsSnapshot is the /debug/server payload.
type StatsSnapshot struct {
	Workers    int `json:"workers"`
	QueueDepth int `json:"queue_depth"`
	// QueueLen is the current number of jobs waiting (not yet running).
	QueueLen      int   `json:"queue_len"`
	JobsSubmitted int64 `json:"jobs_submitted"`
	JobsCompleted int64 `json:"jobs_completed"`
	JobsFailed    int64 `json:"jobs_failed"`
	// JobsRetained is the current size of the pollable async-job map;
	// JobsEvicted counts finished jobs the retention janitor swept.
	JobsRetained      int   `json:"jobs_retained"`
	JobsEvicted       int64 `json:"jobs_evicted"`
	RejectedQueueFull int64 `json:"rejected_queue_full"`
	FlushErrors       int64 `json:"flush_errors,omitempty"`
	// VerdictCacheHits/Misses is the in-memory memo tier; DiskCacheHits/
	// Misses the persistent tier, probed first (see policy.PrepareSlice).
	VerdictCacheHits   int64 `json:"verdict_cache_hits"`
	VerdictCacheMisses int64 `json:"verdict_cache_misses"`
	DiskCacheHits      int64 `json:"disk_cache_hits"`
	DiskCacheMisses    int64 `json:"disk_cache_misses"`
	// WarmHitPct is the fraction of hotspot checks answered from either
	// cache tier instead of running the cascade: (disk hits + memo hits) /
	// (disk hits + memo hits + full computes). A warm daemon serving
	// repeat submissions should sit near 100.
	WarmHitPct   float64                `json:"warm_hit_pct"`
	InternHits   int64                  `json:"intern_hits"`
	InternMisses int64                  `json:"intern_misses"`
	InternRuns   int64                  `json:"intern_runs"`
	InternSyms   int64                  `json:"intern_syms"`
	Tenants      map[string]TenantStats `json:"tenants"`
	// Latency is the served request-latency distribution by endpoint,
	// read back from the same histograms /metrics exposes.
	Latency map[string]LatencyQuantiles `json:"latency,omitempty"`
	// Incremental is the resident-session census, present once any request
	// has opted into incremental re-analysis.
	Incremental *IncrementalStats `json:"incremental,omitempty"`
}

// IncrementalStats summarizes the daemon's incremental-session tier:
// resident sessions and the cumulative reuse their replays bought.
type IncrementalStats struct {
	Sessions        int   `json:"sessions"`
	SessionsEvicted int64 `json:"sessions_evicted"`
	FilesHashed     int64 `json:"files_hashed"`
	FilesReused     int64 `json:"files_reused"`
	FilesParsed     int64 `json:"files_parsed"`
	PagesReplayed   int64 `json:"pages_replayed"`
	PagesRecomputed int64 `json:"pages_recomputed"`
	// HotspotsReplayed verdicts were served by page replay without running
	// phase 2 at all — one tier above the verdict caches, which still see
	// the re-checked remainder.
	HotspotsReplayed  int64 `json:"hotspots_replayed"`
	HotspotsRechecked int64 `json:"hotspots_rechecked"`
	// PageReplayPct is the fraction of incremental pages served by replay;
	// a daemon fed single-file edits should sit near 100.
	PageReplayPct float64 `json:"page_replay_pct"`
}

// LatencyQuantiles summarizes one endpoint's request-latency histogram.
type LatencyQuantiles struct {
	Count int64   `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
}

// Server is one resident analyzer. Create with New, expose with Handler,
// stop with Close.
type Server struct {
	cfg     Config
	checker *policy.Checker
	store   *vcache.Store
	tenants *tenants

	queue chan *Job
	// admitMu serializes submissions against Close: submitters hold it
	// shared around the queue send, Close holds it exclusively while
	// closing the channel, so a late submit can never send on a closed
	// queue.
	admitMu sync.RWMutex
	wg      sync.WaitGroup
	runCtx  context.Context
	stopRun context.CancelFunc

	jobsMu sync.Mutex
	jobs   map[string]*Job

	// sessions are the resident incremental sessions (sessions.go), keyed
	// by tenant + app identity; incr accumulates their per-run reuse
	// counters for /metrics and /debug/server.
	sessMu      sync.Mutex
	sessions    map[string]*residentSession
	sessEvicted atomic.Int64
	incr        incrTotals

	nextJob      atomic.Int64
	nextReq      atomic.Int64
	submitted    atomic.Int64
	completed    atomic.Int64
	failed       atomic.Int64
	evicted      atomic.Int64
	rejectedFull atomic.Int64
	flushErrs    atomic.Int64
	closed       atomic.Bool

	metrics   *serverMetrics
	flight    *flightRecorder
	audit     *auditLog
	rtSampler *metrics.RuntimeSampler
}

// New starts a Server: the shared warm checker is configured once here and
// reused by every job.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	checker := policy.New()
	checker.Memoize = true
	checker.Disk = cfg.VerdictCache
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		checker:  checker,
		store:    cfg.VerdictCache,
		tenants:  newTenants(cfg.DefaultTenant, cfg.Tenants),
		queue:    make(chan *Job, cfg.QueueDepth),
		jobs:     map[string]*Job{},
		sessions: map[string]*residentSession{},
		runCtx:   ctx,
		stopRun:  cancel,
	}
	s.metrics = newServerMetrics(s)
	s.flight = newFlightRecorder(cfg.FlightRecent, cfg.FlightRetain)
	s.audit = newAuditLog(cfg.AuditLog)
	s.rtSampler = metrics.StartRuntime(s.metrics.reg, cfg.RuntimeSample)
	s.wg.Add(cfg.Workers + 1)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	go s.janitor()
	return s
}

// Close drains the server: no new submissions are accepted, queued jobs are
// abandoned as failed, running jobs are cancelled (their units degrade
// soundly), and the verdict store is flushed and closed.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.admitMu.Lock()
	close(s.queue)
	s.admitMu.Unlock()
	// Fail whatever is still waiting in the queue; workers exit when the
	// drained channel closes.
	for j := range s.queue {
		s.failed.Add(1)
		j.finish(nil, errf(http.StatusServiceUnavailable, CodeShutdown, "server shutting down"))
	}
	s.stopRun()
	s.wg.Wait()
	s.rtSampler.Stop()
	if s.store != nil {
		return s.store.Close()
	}
	return nil
}

// Stats snapshots the server counters.
func (s *Server) Stats() StatsSnapshot {
	vh, vm := s.checker.VerdictCacheStats()
	dh, dm := s.checker.DiskCacheStats()
	// Every full compute passes through a memo miss (the memo is the last
	// tier before the cascade), so vm counts computes and dh+vh counts
	// cache-served hotspots.
	hitPct := 0.0
	if dh+vh+vm > 0 {
		hitPct = 100 * float64(dh+vh) / float64(dh+vh+vm)
	}
	arena := grammar.ArenaStatsSnapshot()
	s.jobsMu.Lock()
	retained := len(s.jobs)
	s.jobsMu.Unlock()
	return StatsSnapshot{
		Workers:            s.cfg.Workers,
		QueueDepth:         s.cfg.QueueDepth,
		QueueLen:           len(s.queue),
		JobsSubmitted:      s.submitted.Load(),
		JobsCompleted:      s.completed.Load(),
		JobsFailed:         s.failed.Load(),
		JobsRetained:       retained,
		JobsEvicted:        s.evicted.Load(),
		RejectedQueueFull:  s.rejectedFull.Load(),
		FlushErrors:        s.flushErrs.Load(),
		VerdictCacheHits:   vh,
		VerdictCacheMisses: vm,
		DiskCacheHits:      dh,
		DiskCacheMisses:    dm,
		WarmHitPct:         hitPct,
		InternHits:         arena.InternHits,
		InternMisses:       arena.InternMisses,
		InternRuns:         arena.InternRuns,
		InternSyms:         arena.InternSyms,
		Tenants:            s.tenants.snapshot(),
		Latency:            s.latency(),
		Incremental:        s.incrementalStats(),
	}
}

// latency reads the per-endpoint quantiles back out of the request-latency
// histograms /metrics serves.
func (s *Server) latency() map[string]LatencyQuantiles {
	out := map[string]LatencyQuantiles{}
	s.metrics.requestSec.Each(func(values []string, h *metrics.Histogram) {
		if len(values) != 1 || h.Count() == 0 {
			return
		}
		out[values[0]] = LatencyQuantiles{
			Count: h.Count(),
			P50MS: h.Quantile(0.50) * 1000,
			P95MS: h.Quantile(0.95) * 1000,
			P99MS: h.Quantile(0.99) * 1000,
		}
	})
	if len(out) == 0 {
		return nil
	}
	return out
}

// MetricsSnapshot flattens every served series to name→value (histograms as
// _count/_sum/_p50/_p95/_p99), the form the bench harness records into
// BENCH_server.json.
func (s *Server) MetricsSnapshot() map[string]float64 {
	return s.metrics.reg.Snapshot()
}

// Handler returns the daemon's mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmitJob)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/pack", s.handlePackGet)
	mux.HandleFunc("POST /v1/pack", s.handlePackPost)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /debug/server", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.Handle("GET /metrics", s.metrics.reg.Handler())
	mux.Handle("GET /debug/flight", s.flight.handler())
	// Only pprof comes from the obs debug mux: no analysis runs under a
	// server-level tracer (each job has its own, behind GET /v1/jobs/<id>),
	// so its /debug/progress would always read zero.
	mux.Handle("/debug/pprof/", obs.DebugHandler(nil))
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, "sqlcheckd\n\nPOST /v1/analyze\nPOST /v1/jobs\nGET  /v1/jobs/<id>\nGET  /v1/pack\nPOST /v1/pack\nGET  /healthz\nGET  /metrics\nGET  /debug/server\nGET  /debug/flight\nGET  /debug/pprof/\n")
			return
		}
		s.writeError(w, r, errf(http.StatusNotFound, CodeNotFound, "no such endpoint: %s", r.URL.Path))
	})
	// instrument sits outside recoverMiddleware so a recovered panic is
	// still counted and audited as the 500 it became.
	return s.instrument(recoverMiddleware(mux, s))
}

// recoverMiddleware converts a handler panic into a structured 500 instead
// of killing the connection with a stack trace. The fuzz target relies on
// it as the last line of defense; in practice decodeRequest and the unit
// recovery inside the analyzer catch everything earlier.
func recoverMiddleware(next http.Handler, s *Server) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.writeError(w, r, errf(http.StatusInternalServerError, CodeInternal,
					"internal error: %v", rec))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request) (*Request, *apiError) {
	if s.closed.Load() {
		return nil, errf(http.StatusServiceUnavailable, CodeShutdown, "server shutting down")
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	return decodeRequest(r.Body)
}

// handleAnalyze is the synchronous path: admission through the same bounded
// queue, then block until the job finishes. Untraced, so findings are
// byte-identical to an untraced library AnalyzeAppCtx run.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	req, aerr := s.decodeBody(w, r)
	if aerr != nil {
		s.writeError(w, r, aerr)
		return
	}
	j, aerr := s.submit(r.Header.Get(TenantHeader), req, false)
	if aerr != nil {
		s.writeError(w, r, aerr)
		return
	}
	if rec := recFrom(r); rec != nil {
		rec.job = j
	}
	res, aerr := j.await(r.Context())
	if aerr != nil {
		s.writeError(w, r, aerr)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleSubmitJob is the asynchronous path: enqueue, acknowledge with the
// job id, let the client poll.
func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	req, aerr := s.decodeBody(w, r)
	if aerr != nil {
		s.writeError(w, r, aerr)
		return
	}
	j, aerr := s.submit(r.Header.Get(TenantHeader), req, true)
	if aerr != nil {
		s.writeError(w, r, aerr)
		return
	}
	if rec := recFrom(r); rec != nil {
		rec.job = j
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

// handleJob serves one job's status. ?wait=DURATION long-polls: the
// response is sent as soon as the job completes or the wait elapses,
// whichever is first. A job is visible only to the tenant that submitted
// it; any other tenant gets the same 404 as an unknown id, so neither the
// job's contents nor its existence leaks across tenants.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.jobsMu.Lock()
	j, ok := s.jobs[id]
	s.jobsMu.Unlock()
	if !ok || j.tenant != orDefault(r.Header.Get(TenantHeader)) {
		s.writeError(w, r, errf(http.StatusNotFound, CodeNotFound, "no such job: %s", id))
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		wait, err := time.ParseDuration(waitStr)
		if err != nil || wait < 0 {
			s.writeError(w, r, errf(http.StatusBadRequest, CodeBadRequest, "invalid wait duration: %q", waitStr))
			return
		}
		const maxWait = 30 * time.Second
		if wait > maxWait {
			wait = maxWait
		}
		select {
		case <-j.done:
		case <-time.After(wait):
		case <-r.Context().Done():
		}
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// loadRoot reads an application from the server's filesystem, gated by the
// configured root prefix.
func (s *Server) loadRoot(root string) (map[string]string, *apiError) {
	if s.cfg.FSRootPrefix == "" {
		return nil, errf(http.StatusForbidden, CodeRootDenied, "filesystem roots are disabled")
	}
	// Resolve symlinks on both sides before the containment check: a
	// symlinked directory under the prefix must not reach outside it, and
	// a prefix that is itself behind a symlink must still match.
	prefix, err := filepath.Abs(s.cfg.FSRootPrefix)
	if err == nil {
		prefix, err = filepath.EvalSymlinks(prefix)
	}
	if err != nil {
		return nil, errf(http.StatusInternalServerError, CodeInternal, "bad root prefix: %v", err)
	}
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, errf(http.StatusBadRequest, CodeBadRequest, "bad root: %v", err)
	}
	abs, err = filepath.EvalSymlinks(abs)
	if err != nil {
		return nil, errf(http.StatusUnprocessableEntity, CodeBadApp, "root %q: %v", root, err)
	}
	if abs != prefix && !strings.HasPrefix(abs, prefix+string(filepath.Separator)) {
		return nil, errf(http.StatusForbidden, CodeRootDenied, "root %q is outside the allowed prefix", root)
	}
	sources := map[string]string{}
	walkErr := filepath.Walk(abs, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".php") {
			return err
		}
		// A symlinked .php file could point anywhere (ReadFile follows
		// links); only regular files under the resolved root are served.
		if info.Mode()&os.ModeSymlink != 0 {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(abs, path)
		if err != nil {
			return err
		}
		sources[filepath.ToSlash(rel)] = string(data)
		return nil
	})
	if walkErr != nil {
		return nil, errf(http.StatusUnprocessableEntity, CodeBadApp, "root %q: %v", root, walkErr)
	}
	if len(sources) == 0 {
		return nil, errf(http.StatusUnprocessableEntity, CodeBadApp, "no .php files under %q", root)
	}
	return sources, nil
}

// writeError writes the structured error envelope and stamps the error code
// on the request's instrumentation record, feeding the errors_total metric
// and the audit log.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, e *apiError) {
	if rec := recFrom(r); rec != nil {
		rec.errCode = e.code
	}
	if e.status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(s.cfg.RetryAfter.Seconds()+0.5)))
	}
	status := e.status
	// 499 (client went away) is not a real HTTP status to send; the
	// connection is gone anyway, but keep the write well-formed.
	if status == 499 {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, errorEnvelope{Error: ErrorBody{Code: e.code, Message: e.message}})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
