// queue.go is the bounded job queue behind both endpoints. Sync and async
// submissions travel the same path — a fixed worker pool draining a
// fixed-capacity channel — so the overload behavior is uniform: when the
// queue is full the submission is refused immediately with 429 and a
// Retry-After hint, never buffered without bound. Each job owns a tracer
// feeding a bounded ring of span events: GET /v1/jobs/<id> serves a live
// obs snapshot of the analysis in flight, and the ring is what the flight
// recorder promotes when the request degrades, errors, or breaches the SLO.
package server

import (
	"context"
	"crypto/rand"
	"fmt"
	"net/http"
	"sync"
	"time"

	"sqlciv/internal/analysis"
	"sqlciv/internal/core"
	"sqlciv/internal/obs"
	"sqlciv/internal/xss"
)

// Job is one queued analysis.
type Job struct {
	id     string
	tenant string
	state  *tenantState
	req    *Request
	// tracer observes the run for the progress endpoint and feeds ring, the
	// bounded span buffer the flight recorder promotes when the job goes
	// bad; per-job so one job's events never mix into another's.
	tracer *obs.Tracer
	ring   *obs.RingSink
	// traced marks async jobs: they are pollable (id map + progress
	// snapshots) and their findings carry span ids on the wire. Sync jobs
	// trace too — the flight recorder needs the spans — but their wire
	// responses scrub span ids so the payload stays byte-identical to an
	// untraced library run.
	traced bool

	mu       sync.Mutex
	phase    string // StateQueued | StateRunning | StateDone | StateFailed
	result   *Response
	err      *apiError
	done     chan struct{}
	enqueued time.Time
	started  time.Time
	// doneAt is when the job reached a terminal state; the janitor evicts
	// the job from the server's map JobRetention after it.
	doneAt time.Time
}

func (j *Job) setRunning() {
	j.mu.Lock()
	j.phase = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
}

// flightInfo snapshots the terminal result counts for the HTTP-side flight
// and audit recording of a sync job.
func (j *Job) flightInfo() (findings, degradations int, queueMS int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.result != nil {
		findings = len(j.result.Findings)
		degradations = j.result.DegradedHotspots + j.result.DegradedPages
	}
	if !j.started.IsZero() {
		queueMS = j.started.Sub(j.enqueued).Milliseconds()
	}
	return
}

func (j *Job) finish(res *Response, err *apiError) {
	j.mu.Lock()
	if err != nil {
		j.phase, j.err = StateFailed, err
	} else {
		j.phase, j.result = StateDone, res
	}
	j.doneAt = time.Now()
	// The request (sources up to MaxBodyBytes) is dead weight once the job
	// is terminal; release it even while the status stays pollable.
	j.req = nil
	j.mu.Unlock()
	j.state.release()
	close(j.done)
}

// Status renders the job for the wire. While the job runs it carries the
// tracer's live progress snapshot; once done it carries the final report.
func (j *Job) Status() *JobStatus {
	j.mu.Lock()
	st := &JobStatus{ID: j.id, Tenant: j.tenant, State: j.phase,
		Result: j.result, Error: j.err.body()}
	j.mu.Unlock()
	if st.State == StateRunning && j.traced {
		snap := j.tracer.Progress()
		st.Progress = &snap
	}
	return st
}

func (e *apiError) body() *ErrorBody {
	if e == nil {
		return nil
	}
	return &ErrorBody{Code: e.code, Message: e.message}
}

// submit creates a job for req under tenant and enqueues it, enforcing the
// tenant in-flight cap and the queue bound. traced marks async jobs (they
// become pollable and expose span ids on the wire); every job traces into
// its bounded ring regardless, so the flight recorder can keep the span
// timeline of a request that goes bad.
func (s *Server) submit(tenant string, req *Request, traced bool) (*Job, *apiError) {
	st := s.tenants.get(tenant)
	if !st.acquire() {
		return nil, errf(429, CodeTenantLimit,
			"tenant %q has %d jobs in flight (cap %d)", orDefault(tenant), st.inFlight.Load(), st.cfg.MaxInFlight)
	}
	j := &Job{
		id:       jobID(s.nextJob.Add(1)),
		tenant:   orDefault(tenant),
		state:    st,
		req:      req,
		traced:   traced,
		phase:    StateQueued,
		done:     make(chan struct{}),
		enqueued: time.Now(),
	}
	j.ring = obs.NewRingSink(flightTraceEvents)
	j.tracer = obs.New(j.ring)
	if traced {
		// Only async jobs are pollable, so only they enter the id map; a
		// sync submitter holds the *Job directly and nothing is retained
		// once its handler returns.
		s.jobsMu.Lock()
		s.jobs[j.id] = j
		s.jobsMu.Unlock()
	}
	s.admitMu.RLock()
	if s.closed.Load() {
		s.admitMu.RUnlock()
		st.release()
		s.dropJob(j.id)
		return nil, errf(http.StatusServiceUnavailable, CodeShutdown, "server shutting down")
	}
	select {
	case s.queue <- j:
		s.admitMu.RUnlock()
		st.jobs.Add(1)
		s.submitted.Add(1)
		return j, nil
	default:
		s.admitMu.RUnlock()
		st.release()
		s.dropJob(j.id)
		s.rejectedFull.Add(1)
		return nil, errf(429, CodeQueueFull,
			"job queue is full (%d queued, %d workers)", cap(s.queue), s.cfg.Workers)
	}
}

func (s *Server) dropJob(id string) {
	s.jobsMu.Lock()
	delete(s.jobs, id)
	s.jobsMu.Unlock()
}

// jobID mints one job id: a monotonic sequence (log-friendly ordering) plus
// 48 random bits so ids cannot be enumerated — a client that never saw an
// id cannot poll someone else's job by counting.
func jobID(seq int64) string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// No entropy means no unguessable id; refuse the submission rather
		// than mint an enumerable one (recoverMiddleware turns this into a
		// structured 500).
		panic(fmt.Sprintf("job id entropy: %v", err))
	}
	return fmt.Sprintf("j%08d-%x", seq, b)
}

// sweepJobs evicts finished jobs that reached a terminal state at or before
// cutoff. Queued and running jobs are never touched.
func (s *Server) sweepJobs(cutoff time.Time) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	for id, j := range s.jobs {
		j.mu.Lock()
		expired := (j.phase == StateDone || j.phase == StateFailed) && !j.doneAt.After(cutoff)
		j.mu.Unlock()
		if expired {
			delete(s.jobs, id)
			s.evicted.Add(1)
		}
	}
}

// janitor periodically sweeps finished jobs older than the retention window
// so the id map cannot grow without bound on a long-running daemon, and
// idle incremental sessions past theirs (sessions hold a whole app's parse
// trees and page memos — the daemon's largest resident state).
func (s *Server) janitor() {
	defer s.wg.Done()
	interval := s.cfg.JobRetention / 4
	if interval < time.Second {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.runCtx.Done():
			return
		case <-t.C:
			now := time.Now()
			s.sweepJobs(now.Add(-s.cfg.JobRetention))
			s.sweepSessions(now.Add(-s.cfg.SessionRetention))
		}
	}
}

func orDefault(tenant string) string {
	if tenant == "" {
		return DefaultTenantName
	}
	return tenant
}

// worker drains the queue until it closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one analysis under the job's tenant budget and the shared
// warm checker, then publishes the result — and files the job's telemetry:
// queue-wait and run-time histograms for every job, plus a flight entry and
// audit line for async jobs (a sync job's outcome rides its HTTP request's
// entry instead, so nothing is recorded twice).
func (s *Server) runJob(j *Job) {
	j.setRunning()
	wait := j.started.Sub(j.enqueued)
	s.metrics.queueWaitSec.ObserveDuration(wait)
	res, err := s.analyze(j)
	dur := time.Since(j.started)
	s.metrics.jobRunSec.ObserveDuration(dur)
	if err == nil {
		j.state.budgetTrips.Add(int64(res.DegradedHotspots + res.DegradedPages))
		j.state.findings.Add(int64(len(res.Findings)))
		s.completed.Add(1)
	} else {
		s.failed.Add(1)
	}
	if j.traced {
		s.recordAsyncJob(j, res, err, wait, dur)
	}
	j.finish(res, err)
}

// recordAsyncJob files the flight entry and audit line for a finished async
// job. Runs before finish so the entry is visible by the time the job's
// status flips to done.
func (s *Server) recordAsyncJob(j *Job, res *Response, aerr *apiError, wait, dur time.Duration) {
	entry := FlightEntry{
		ID:        j.id,
		Kind:      "job",
		Time:      flightNow(),
		Tenant:    j.tenant,
		WallMS:    dur.Milliseconds(),
		QueueMS:   wait.Milliseconds(),
		SLOBreach: s.cfg.SLO > 0 && dur > s.cfg.SLO,
	}
	if aerr != nil {
		entry.Status = aerr.status
		entry.Code = aerr.code
	} else {
		entry.Findings = len(res.Findings)
		entry.Degradations = res.DegradedHotspots + res.DegradedPages
		entry.Degraded = entry.Degradations > 0
	}
	s.flight.record(entry, j.ring)
	s.audit.write(auditRecord{
		TS:            entry.Time,
		Kind:          "job",
		ID:            j.id,
		Tenant:        j.tenant,
		Status:        entry.Status,
		Code:          entry.Code,
		WallMS:        entry.WallMS,
		QueueMS:       entry.QueueMS,
		Findings:      entry.Findings,
		Degradations:  entry.Degradations,
		SLOBreach:     entry.SLOBreach,
		TraceRetained: entry.bad(),
	})
}

// analyze maps a wire request onto the library: resolver, options, tenant
// budget clamp, the server's shared checker, and — when requested — the XSS
// audit over the same resolver.
func (s *Server) analyze(j *Job) (*Response, *apiError) {
	req := j.req
	sources := req.Sources
	if req.Root != "" {
		loaded, aerr := s.loadRoot(req.Root)
		if aerr != nil {
			return nil, aerr
		}
		sources = loaded
	}
	entries := req.Entries
	if len(entries) == 0 {
		entries = core.GuessEntries(sources)
	}
	if len(entries) == 0 {
		return nil, errf(422, CodeBadApp, "no entry pages (no sources, or every file looks like an include)")
	}
	parallel := req.Options.Parallel
	if parallel < 1 {
		parallel = 1
	}
	if parallel > s.cfg.MaxRequestParallel {
		parallel = s.cfg.MaxRequestParallel
	}
	reqLimits := req.Budget.Limits()
	effLimits := clampLimits(reqLimits, j.state.cfg.Limits)
	if effLimits != reqLimits {
		j.state.clamped.Add(1)
		s.metrics.clamped.Inc()
	}
	opts := core.Options{
		Parallel:         parallel,
		ParallelHotspots: parallel,
		Budget:           effLimits,
		Tracer:           j.tracer,
		Checker:          s.checker,
	}
	opts.Analysis.DisableGuardRefinement = req.Options.NoGuardRefinement
	opts.Analysis.MagicQuotes = req.Options.MagicQuotes
	if req.Options.Incremental {
		// The resident session turns a repeat submission into a hash sweep
		// plus a delta re-check: unchanged pages replay their memoized
		// outcome without re-parsing or re-checking anything.
		opts.Session = s.session(sessionKey(j.tenant, req))
	}

	resolver := analysis.NewMapResolver(sources)
	res, err := core.AnalyzeAppCtx(s.runCtx, resolver, entries, opts)
	if err != nil {
		// AnalyzeAppCtx errors only on genuine input failures (an entry
		// that cannot be loaded) — the client's fault, structured as such.
		return nil, errf(422, CodeBadApp, "%v", err)
	}
	m := s.metrics
	m.pagesAnalyzed.Add(int64(len(res.Pages)))
	m.pagesDegraded.Add(int64(res.DegradedPages))
	m.hotspotsDegraded.Add(int64(res.DegradedHotspots))
	m.findings.Add(int64(len(res.Findings)))
	for reason, n := range res.DegradationsByReason() {
		m.degradations.With(reason).Add(int64(n))
	}
	m.analysisSec.With("string_analysis").Observe(res.StringAnalysisWall.Seconds())
	m.analysisSec.With("check").Observe(res.CheckWall.Seconds())
	m.slabBytes.Set(float64(res.GrammarSlabBytes))
	s.totals.add(res)
	var xssFindings []xss.Finding
	if req.Options.XSS {
		xssFindings, err = xss.Audit(resolver, entries, opts.Analysis)
		if err != nil {
			return nil, errf(422, CodeBadApp, "xss audit: %v", err)
		}
	}
	// Make this job's verdicts durable (and visible to future cold starts)
	// before answering; flush errors cost persistence, never correctness.
	if s.store != nil {
		if ferr := s.store.Flush(); ferr != nil {
			s.flushErrs.Add(1)
		}
	}
	// Sync responses scrub span ids (j.traced false): the payload must stay
	// byte-identical to an untraced library run even though the job WAS
	// traced for the flight recorder. Async responses keep them — they link
	// into the job's progress snapshots.
	out := responseFromResult(res, xssFindings, j.traced)
	if req.Options.EmitPack {
		// Compile the warm result's hotspot languages into a runtime policy
		// pack. Degraded or cap-exceeding hotspots become unavailable entries
		// that fail closed at enforcement time, so a degraded analysis still
		// yields a sound (if stricter) pack.
		pack, pstats, perr := core.BuildPack(res, core.PackOptions{})
		if perr != nil {
			return nil, errf(http.StatusInternalServerError, CodeInternal, "pack compilation: %v", perr)
		}
		out.Pack = pack
		out.PackStats = &pstats
	}
	return out, nil
}

// await blocks until the job finishes or ctx is done. The job keeps running
// (and caching) even when the waiter gives up.
func (j *Job) await(ctx context.Context) (*Response, *apiError) {
	select {
	case <-j.done:
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.result, j.err
	case <-ctx.Done():
		return nil, errf(499, CodeShutdown, "client went away: %v", ctx.Err())
	}
}
