// metrics.go wires the daemon into the obs/metrics registry: RED metrics
// for every endpoint (rate, errors, duration histograms), queue and
// admission counters, per-tenant accounting, and the analysis-side series
// (hotspot checks, verdict-cache tiers, degradations by cause, arena
// interning). Process state that already lives in atomics — queue length,
// job counters, cache stats, tenant snapshots — is exported through
// func-backed series read at scrape time, so serving /metrics never double
// counts and recording on the request path stays a handful of atomic ops.
package server

import (
	"sort"

	"sqlciv/internal/grammar"
	"sqlciv/internal/obs/metrics"
)

// serverMetrics owns the registry and the hot-path instruments the request
// and job paths record into directly.
type serverMetrics struct {
	reg *metrics.Registry

	// HTTP surface (recorded by the instrument middleware).
	requests     *metrics.CounterVec   // {endpoint, status}
	requestSec   *metrics.HistogramVec // {endpoint}
	requestBytes *metrics.CounterVec   // {endpoint}
	decodeSec    *metrics.HistogramVec // {endpoint}
	errors       *metrics.CounterVec   // {endpoint, code}
	sloBreaches  *metrics.CounterVec   // {endpoint}
	inflight     *metrics.Gauge

	// Job lifecycle (recorded by runJob for sync and async alike).
	queueWaitSec *metrics.Histogram
	jobRunSec    *metrics.Histogram

	// Analysis results (recorded after each completed job).
	findings         *metrics.Counter
	degradations     *metrics.CounterVec // {reason}
	pagesAnalyzed    *metrics.Counter
	pagesDegraded    *metrics.Counter
	hotspotsDegraded *metrics.Counter
	analysisSec      *metrics.HistogramVec // {phase}
	slabBytes        *metrics.Gauge
	clamped          *metrics.Counter
}

func newServerMetrics(s *Server) *serverMetrics {
	r := metrics.New()
	m := &serverMetrics{
		reg: r,
		requests: r.CounterVec("sqlcheckd_requests_total",
			"HTTP requests served, by endpoint and status code.",
			"endpoint", "status"),
		requestSec: r.HistogramVec("sqlcheckd_request_seconds",
			"HTTP request latency in seconds, by endpoint.",
			nil, "endpoint"),
		requestBytes: r.CounterVec("sqlcheckd_request_bytes_total",
			"Request body bytes read, by endpoint.",
			"endpoint"),
		decodeSec: r.HistogramVec("sqlcheckd_request_decode_seconds",
			"Seconds spent decoding and validating a request body once read, by endpoint.",
			nil, "endpoint"),
		errors: r.CounterVec("sqlcheckd_errors_total",
			"Structured error envelopes returned, by endpoint and error code.",
			"endpoint", "code"),
		sloBreaches: r.CounterVec("sqlcheckd_slo_breaches_total",
			"Requests (and async job runs) that exceeded the configured latency SLO.",
			"endpoint"),
		inflight: r.Gauge("sqlcheckd_inflight_requests",
			"HTTP requests currently being served."),
		queueWaitSec: r.Histogram("sqlcheckd_job_queue_wait_seconds",
			"Seconds a job waited in the admission queue before a worker picked it up.",
			nil),
		jobRunSec: r.Histogram("sqlcheckd_job_run_seconds",
			"Seconds a worker spent running one job (analysis wall time).",
			nil),
		findings: r.Counter("sqlciv_findings_total",
			"Findings returned across all jobs."),
		degradations: r.CounterVec("sqlciv_degradations_total",
			"Analysis units (pages or hotspots) degraded to unknown, by budget reason.",
			"reason"),
		pagesAnalyzed: r.Counter("sqlciv_pages_analyzed_total",
			"Entry pages analyzed across all jobs."),
		pagesDegraded: r.Counter("sqlciv_pages_degraded_total",
			"Entry pages whose phase-1 analysis was cut short."),
		hotspotsDegraded: r.Counter("sqlciv_hotspots_degraded_total",
			"Hotspot checks degraded to VerdictUnknown."),
		analysisSec: r.HistogramVec("sqlciv_analysis_seconds",
			"Analysis wall seconds per job, by phase (string_analysis, check).",
			nil, "phase"),
		slabBytes: r.Gauge("sqlciv_grammar_slab_bytes",
			"Arena slab bytes of the most recent job's grammars."),
		clamped: r.Counter("sqlcheckd_budget_clamped_total",
			"Requests whose budget was tightened by the tenant ceiling."),
	}

	// Queue and worker-pool state, read live at scrape time.
	r.GaugeFunc("sqlcheckd_queue_len",
		"Jobs waiting in the admission queue (not yet running).",
		func() float64 { return float64(len(s.queue)) })
	r.GaugeFunc("sqlcheckd_queue_capacity",
		"Admission queue capacity.",
		func() float64 { return float64(s.cfg.QueueDepth) })
	r.GaugeFunc("sqlcheckd_workers",
		"Analysis worker pool size.",
		func() float64 { return float64(s.cfg.Workers) })
	r.CounterFunc("sqlcheckd_jobs_submitted_total",
		"Jobs accepted into the queue (sync and async).",
		func() float64 { return float64(s.submitted.Load()) })
	r.CounterFunc("sqlcheckd_jobs_completed_total",
		"Jobs that finished with a result.",
		func() float64 { return float64(s.completed.Load()) })
	r.CounterFunc("sqlcheckd_jobs_failed_total",
		"Jobs that finished with an error.",
		func() float64 { return float64(s.failed.Load()) })
	r.CounterFunc("sqlcheckd_jobs_evicted_total",
		"Finished async jobs swept by the retention janitor.",
		func() float64 { return float64(s.evicted.Load()) })
	r.CounterFunc("sqlcheckd_rejected_queue_full_total",
		"Submissions refused with 429 because the queue was full.",
		func() float64 { return float64(s.rejectedFull.Load()) })
	r.CounterFunc("sqlcheckd_flush_errors_total",
		"Verdict-store flushes that failed (persistence lost, correctness kept).",
		func() float64 { return float64(s.flushErrs.Load()) })
	r.GaugeFunc("sqlcheckd_jobs_retained",
		"Finished async jobs still pollable (retention window).",
		func() float64 {
			s.jobsMu.Lock()
			n := len(s.jobs)
			s.jobsMu.Unlock()
			return float64(n)
		})

	// Per-tenant accounting off the tenants registry snapshot.
	tenantSeries := func(pick func(TenantStats) float64) func() []metrics.Labeled {
		return func() []metrics.Labeled {
			snap := s.tenants.snapshot()
			names := make([]string, 0, len(snap))
			for name := range snap {
				names = append(names, name)
			}
			sort.Strings(names)
			out := make([]metrics.Labeled, 0, len(names))
			for _, name := range names {
				out = append(out, metrics.Labeled{Values: []string{name}, V: pick(snap[name])})
			}
			return out
		}
	}
	tl := []string{"tenant"}
	r.GaugeVecFunc("sqlcheckd_tenant_inflight", "Tenant jobs queued or running.",
		tl, tenantSeries(func(t TenantStats) float64 { return float64(t.InFlight) }))
	r.CounterVecFunc("sqlcheckd_tenant_jobs_total", "Tenant submissions accepted.",
		tl, tenantSeries(func(t TenantStats) float64 { return float64(t.Jobs) }))
	r.CounterVecFunc("sqlcheckd_tenant_rejected_total", "Tenant submissions refused at the in-flight cap.",
		tl, tenantSeries(func(t TenantStats) float64 { return float64(t.Rejected) }))
	r.CounterVecFunc("sqlcheckd_tenant_budget_trips_total", "Tenant analysis units degraded under budget.",
		tl, tenantSeries(func(t TenantStats) float64 { return float64(t.BudgetTrips) }))
	r.CounterVecFunc("sqlcheckd_tenant_findings_total", "Findings returned to the tenant.",
		tl, tenantSeries(func(t TenantStats) float64 { return float64(t.Findings) }))
	r.CounterVecFunc("sqlcheckd_tenant_clamped_total", "Tenant requests whose budget hit the ceiling clamp.",
		tl, tenantSeries(func(t TenantStats) float64 { return float64(t.Clamped) }))

	// Analysis substrate: the verdict-cache probes summed over every job's
	// hotspot checks, and the process-global grammar interns.
	r.CounterFunc("sqlciv_hotspots_checked_total",
		"Hotspot checks executed by the shared checker (cache hits included).",
		func() float64 { return float64(s.totals.checked()) })
	r.CounterFunc("sqlciv_verdict_memo_hits_total",
		"In-memory verdict-memo hits.",
		func() float64 { return float64(s.totals.memoHits.Load()) })
	r.CounterFunc("sqlciv_verdict_memo_misses_total",
		"In-memory verdict-memo misses (each is one full cascade).",
		func() float64 { return float64(s.totals.memoMisses.Load()) })
	r.CounterFunc("sqlciv_verdict_disk_hits_total",
		"Persistent verdict-cache hits.",
		func() float64 { return float64(s.totals.diskHits.Load()) })
	r.CounterFunc("sqlciv_verdict_disk_misses_total",
		"Persistent verdict-cache misses.",
		func() float64 { return float64(s.totals.diskMisses.Load()) })
	r.GaugeFunc("sqlciv_verdict_cache_warm_pct",
		"Percent of hotspot checks answered from either verdict-cache tier.",
		s.totals.warmPct)
	if s.store != nil {
		r.CounterFunc("sqlciv_vcache_puts_total",
			"Verdicts handed to the persistent store this process.",
			func() float64 { return float64(s.store.CacheStats().Puts) })
		r.CounterFunc("sqlciv_vcache_written_total",
			"Verdict-store entries durably written by flushes.",
			func() float64 { return float64(s.store.CacheStats().Written) })
		r.CounterFunc("sqlciv_vcache_errors_total",
			"Verdict-store read errors (treated as misses).",
			func() float64 { return float64(s.store.CacheStats().Errors) })
	}
	// Incremental re-analysis: resident sessions and the reuse their page
	// replays bought (one tier above the verdict caches, which only see the
	// hotspots that were actually re-checked).
	r.GaugeFunc("sqlciv_incr_sessions",
		"Resident incremental sessions (apps kept warm for replay).",
		func() float64 { return float64(s.sessionCount()) })
	r.CounterFunc("sqlciv_incr_sessions_evicted_total",
		"Incremental sessions evicted by the LRU cap or the idle-retention sweep.",
		func() float64 { return float64(s.sessEvicted.Load()) })
	r.CounterFunc("sqlciv_incr_files_hashed_total",
		"Source files content-hashed by incremental runs (every file, every run).",
		func() float64 { return float64(s.totals.filesHashed.Load()) })
	r.CounterFunc("sqlciv_incr_files_reused_total",
		"Parse-tree loads served by the cross-run parse cache.",
		func() float64 { return float64(s.totals.filesReused.Load()) })
	r.CounterFunc("sqlciv_incr_files_parsed_total",
		"Files actually re-parsed by incremental runs (content changed).",
		func() float64 { return float64(s.totals.filesParsed.Load()) })
	r.CounterFunc("sqlciv_incr_pages_replayed_total",
		"Pages whose unchanged dependency closure replayed a memoized outcome.",
		func() float64 { return float64(s.totals.pagesReplayed.Load()) })
	r.CounterFunc("sqlciv_incr_pages_recomputed_total",
		"Pages incremental runs re-analyzed because their closure changed.",
		func() float64 { return float64(s.totals.pagesRecomputed.Load()) })
	r.CounterFunc("sqlciv_incr_hotspots_replayed_total",
		"Hotspot verdicts served by page replay without entering phase 2.",
		func() float64 { return float64(s.totals.hotspotsReplayed.Load()) })
	r.CounterFunc("sqlciv_incr_hotspots_rechecked_total",
		"Hotspot checks incremental runs actually re-ran.",
		func() float64 { return float64(s.totals.hotspotsRechecked.Load()) })
	r.GaugeFunc("sqlciv_incr_page_replay_pct",
		"Percent of incremental pages served by replay instead of recomputation.",
		func() float64 { return s.totals.pageReplayPct() })

	r.CounterFunc("sqlciv_arena_intern_hits_total",
		"Terminal-run intern hits in the grammar arena.",
		func() float64 { return float64(grammar.ArenaStatsSnapshot().InternHits) })
	r.CounterFunc("sqlciv_arena_intern_misses_total",
		"Terminal-run intern misses in the grammar arena.",
		func() float64 { return float64(grammar.ArenaStatsSnapshot().InternMisses) })
	r.GaugeFunc("sqlciv_arena_intern_runs",
		"Distinct terminal runs interned.",
		func() float64 { return float64(grammar.ArenaStatsSnapshot().InternRuns) })
	r.GaugeFunc("sqlciv_arena_intern_syms",
		"Distinct symbols interned.",
		func() float64 { return float64(grammar.ArenaStatsSnapshot().InternSyms) })

	return m
}
