// Command sqlcheckd serves the analyzer over HTTP+JSON: one resident
// process whose warm state — the in-memory memo keyed by slice key, the
// persistent verdict store, the process-global DFA/terminal-run interns
// and byte-class partitions — is shared by every submission, so fleets of
// CI jobs and IDE clients pay cache hits instead of cold analyses.
//
// Usage:
//
//	sqlcheckd [-addr localhost:7433] [-workers N] [-queue-depth N]
//
// Endpoints (see internal/server):
//
//	POST /v1/analyze     submit {"sources": {...}, "entries": [...]},
//	                     block, get findings/degradations/stats JSON
//	POST /v1/jobs        same body, asynchronous; poll the returned id
//	GET  /v1/jobs/<id>   progress snapshot / final report (?wait= to
//	                     long-poll)
//	GET  /healthz        liveness
//	GET  /metrics        Prometheus text exposition: RED metrics per
//	                     endpoint, queue/admission, verdict-cache tiers,
//	                     degradations by cause, go runtime
//	GET  /debug/server   queue + tenant + cache counters
//	GET  /debug/flight   flight recorder: recent request summaries plus
//	                     the retained span traces of degraded/errored/
//	                     SLO-breaching requests (?id= for one full trace)
//	GET  /debug/pprof/   the standard pprof handlers
//
// Observability: -slo-ms sets the latency objective (breaches are counted
// in sqlcheckd_slo_breaches_total and promote the request's trace into the
// flight recorder); -access-log PATH writes one JSON audit line per
// finished request and async job ("-" = stderr). -metrics-smoke is the CI
// self-check for this surface.
//
// Admission control: -workers analysis workers drain a bounded queue of
// -queue-depth waiting jobs; a full queue answers 429 with Retry-After.
// Per-tenant isolation (header X-Sqlciv-Tenant): -tenant-inflight caps each
// tenant's queued+running jobs, and -tenant-timeout / -tenant-hotspot-
// timeout / -tenant-max-steps / -tenant-max-mem set the budget ceiling a
// request's own budget is clamped to — an oversized job degrades its own
// units to explicit analysis-incomplete findings instead of starving the
// fleet. Async job ids are unguessable and visible only to the submitting
// tenant; finished reports stay pollable for -job-retention, then are
// evicted so the id map stays bounded.
//
// Hotspot verdicts persist in the same content-addressed cache the sqlcheck
// CLI uses (-cache-dir / -no-cache), flushed after every job, so a daemon
// restart starts warm.
//
// Incremental re-analysis: a request that sets options.incremental runs
// through a resident per-app session (parse trees + page memos keyed by
// content hash), so re-submitting an app after editing one file replays
// every unchanged page and re-checks only the dirtied include closure.
// -max-sessions bounds the resident sessions (LRU); -session-retention
// sweeps idle ones. Reuse shows up in the response's incr_* stats, the
// sqlciv_incr_* metrics series, and /debug/server's "incremental" section.
//
// -smoke runs the CI self-check: start the server on a loopback port,
// submit a corpus subject through the real HTTP surface with the library
// client, and exit 0 only if the known findings come back.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sqlciv"
	"sqlciv/internal/corpus"
	"sqlciv/internal/obs/metrics"
	"sqlciv/internal/server"
	"sqlciv/internal/vcache"
)

// The daemon's read deadlines. Two minutes carries a body of the default
// 16 MiB cap over a link of about 1.1 Mbit/s.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 2 * time.Minute
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", "localhost:7433", "listen address")
	workers := flag.Int("workers", 2, "analysis worker pool size")
	queueDepth := flag.Int("queue-depth", 0, "bounded queue depth beyond running jobs (0 = 2x workers)")
	maxBody := flag.Int64("max-body", 16<<20, "request body cap in bytes")
	maxParallel := flag.Int("max-request-parallel", 1, "per-job worker cap a request may ask for")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")
	jobRetention := flag.Duration("job-retention", 5*time.Minute, "how long a finished async job's report stays pollable before eviction")
	maxSessions := flag.Int("max-sessions", 8, "resident incremental sessions kept warm for requests with options.incremental (LRU beyond the cap)")
	sessionRetention := flag.Duration("session-retention", 15*time.Minute, "how long an idle incremental session survives before the janitor sweeps it")
	tenantInflight := flag.Int("tenant-inflight", 8, "per-tenant queued+running job cap (0 = uncapped)")
	tenantTimeout := flag.Duration("tenant-timeout", 0, "per-tenant whole-run budget ceiling (0 = unlimited)")
	tenantHotspotTimeout := flag.Duration("tenant-hotspot-timeout", 0, "per-tenant hotspot budget ceiling (0 = unlimited)")
	tenantMaxSteps := flag.Int64("tenant-max-steps", 0, "per-tenant abstract step ceiling per analysis unit (0 = unlimited)")
	tenantMaxMem := flag.Int64("tenant-max-mem", 0, "per-tenant estimated memory ceiling per analysis unit (0 = unlimited)")
	cacheDir := flag.String("cache-dir", "", "persistent verdict-cache directory (default: a sqlciv dir under the user cache dir)")
	noCache := flag.Bool("no-cache", false, "disable the persistent verdict cache")
	fsRoot := flag.String("fs-root", "", "allow requests to name resolver roots under this directory (empty = inline sources only)")
	sloMS := flag.Int64("slo-ms", 0, "request latency SLO in milliseconds; breaches are counted and their traces retained by the flight recorder (0 = disabled)")
	accessLog := flag.String("access-log", "", "write one JSON audit line per request/job to this file (\"-\" = stderr)")
	smoke := flag.Bool("smoke", false, "self-check: serve on a loopback port, submit a corpus app over HTTP, assert its known findings, exit")
	metricsSmoke := flag.Bool("metrics-smoke", false, "self-check: serve on a loopback port, drive one healthy and one degraded request, assert /metrics parses with the required series and /debug/flight retained the degraded trace, exit")
	flag.Parse()

	cfg := server.Config{
		Workers:            *workers,
		QueueDepth:         *queueDepth,
		MaxBodyBytes:       *maxBody,
		MaxRequestParallel: *maxParallel,
		RetryAfter:         *retryAfter,
		JobRetention:       *jobRetention,
		MaxSessions:        *maxSessions,
		SessionRetention:   *sessionRetention,
		FSRootPrefix:       *fsRoot,
		SLO:                time.Duration(*sloMS) * time.Millisecond,
		DefaultTenant: server.Tenant{
			MaxInFlight: *tenantInflight,
		},
	}
	if *accessLog != "" {
		if *accessLog == "-" {
			cfg.AuditLog = os.Stderr
		} else {
			f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sqlcheckd: access log:", err)
				return 1
			}
			defer f.Close()
			cfg.AuditLog = f
		}
	}
	cfg.DefaultTenant.Limits.Timeout = *tenantTimeout
	cfg.DefaultTenant.Limits.HotspotTimeout = *tenantHotspotTimeout
	cfg.DefaultTenant.Limits.MaxSteps = *tenantMaxSteps
	cfg.DefaultTenant.Limits.MaxMemBytes = *tenantMaxMem

	// Persistent verdict cache: on by default; a bad cache directory only
	// costs warmth, so warn and serve cold.
	if !*noCache {
		dir := *cacheDir
		if dir == "" {
			d, err := vcache.DefaultDir("vcache")
			if err != nil {
				fmt.Fprintln(os.Stderr, "sqlcheckd: verdict cache disabled:", err)
			}
			dir = d
		}
		if dir != "" {
			store, err := vcache.Open(dir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sqlcheckd: verdict cache disabled:", err)
			} else {
				cfg.VerdictCache = store
			}
		}
	}

	if *smoke {
		return runSmoke(cfg)
	}
	if *metricsSmoke {
		return runMetricsSmoke(cfg)
	}

	srv := server.New(cfg)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sqlcheckd:", err)
		return 1
	}
	// A client has readHeaderTimeout to send its headers and readTimeout to
	// send its whole request (and to start the next one on a kept-alive
	// connection); a stalled client is then disconnected instead of holding
	// its connection and body buffer open. net/http lifts the deadline once
	// the body has been read, so neither cuts a long sync analysis or a
	// ?wait= poll short.
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
	}
	// Stats reports the resolved configuration (0 flags fall back to
	// defaults inside server.New).
	st := srv.Stats()
	fmt.Printf("sqlcheckd: listening on http://%s (%d workers, queue depth %d)\n",
		ln.Addr(), st.Workers, st.QueueDepth)

	// Serve until SIGINT/SIGTERM, then drain: stop accepting, fail queued
	// jobs, cancel running ones (their units degrade soundly), flush the
	// verdict store.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "sqlcheckd:", err)
			return 1
		}
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "sqlcheckd: shutting down")
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	httpSrv.Shutdown(shutCtx)
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "sqlcheckd: close:", err)
		return 1
	}
	return 0
}

// runSmoke is the CI daemon smoke: a real listener, a real client, one
// corpus subject each way (sync and async), asserting the expected findings
// census comes back over the wire.
func runSmoke(cfg server.Config) int {
	srv := server.New(cfg)
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "sqlcheckd: smoke:", err)
		return 1
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()

	client := sqlciv.NewServiceClient("http://" + ln.Addr().String())
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	app := corpus.Utopia()
	want := app.Expect.DirectReal + app.Expect.DirectFalse + app.Expect.Indirect
	req := &sqlciv.AnalyzeRequest{Sources: app.Sources, Entries: app.Entries}

	res, err := client.Analyze(ctx, req)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sqlcheckd: smoke: sync analyze:", err)
		return 1
	}
	if len(res.Findings) != want {
		fmt.Fprintf(os.Stderr, "sqlcheckd: smoke: %s: got %d findings over the wire, want %d\n",
			app.Name, len(res.Findings), want)
		return 1
	}

	st, err := client.SubmitJob(ctx, req)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sqlcheckd: smoke: submit job:", err)
		return 1
	}
	asyncRes, err := client.WaitJob(ctx, st.ID)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sqlcheckd: smoke: wait job:", err)
		return 1
	}
	if len(asyncRes.Findings) != want {
		fmt.Fprintf(os.Stderr, "sqlcheckd: smoke: async %s: got %d findings, want %d\n",
			app.Name, len(asyncRes.Findings), want)
		return 1
	}

	stats, err := client.ServerStats(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sqlcheckd: smoke: stats:", err)
		return 1
	}
	fmt.Printf("sqlcheckd: smoke ok: %s served twice (%d findings), memo %d / disk %d hits, warm hit rate %.1f%%\n",
		app.Name, len(res.Findings), stats.VerdictCacheHits, stats.DiskCacheHits, stats.WarmHitPct)
	if stats.VerdictCacheHits == 0 && stats.DiskCacheHits == 0 {
		fmt.Fprintln(os.Stderr, "sqlcheckd: smoke: warm repeat submission hit no verdict cache")
		return 1
	}
	return 0
}

// runMetricsSmoke is the CI telemetry self-check: boot the daemon on a
// loopback port, drive one healthy analyze and one that degrades under a
// one-step budget, then assert GET /metrics serves strictly parseable
// Prometheus text covering the request/queue/cache/degradation/runtime
// series, and that GET /debug/flight retained the degraded request's span
// trace.
func runMetricsSmoke(cfg server.Config) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "sqlcheckd: metrics-smoke: "+format+"\n", args...)
		return 1
	}
	// The telemetry smoke must not depend on (or warm) the shared on-disk
	// cache, and it needs degradations: a fresh in-memory-only server.
	cfg.VerdictCache = nil
	srv := server.New(cfg)
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail("%v", err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()

	base := "http://" + ln.Addr().String()
	client := sqlciv.NewServiceClient(base)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	app := corpus.Utopia()
	req := &sqlciv.AnalyzeRequest{Sources: app.Sources, Entries: app.Entries}
	if _, err := client.Analyze(ctx, req); err != nil {
		return fail("healthy analyze: %v", err)
	}
	degradedReq := &sqlciv.AnalyzeRequest{
		Sources: app.Sources, Entries: app.Entries,
		Budget: sqlciv.AnalyzeRequestBudget{MaxSteps: 1},
	}
	degRes, err := client.Analyze(ctx, degradedReq)
	if err != nil {
		return fail("degraded analyze: %v", err)
	}
	if degRes.DegradedHotspots+degRes.DegradedPages == 0 {
		return fail("one-step budget did not degrade anything")
	}

	// /metrics must parse strictly and cover every required family.
	body, err := httpGet(ctx, base+"/metrics")
	if err != nil {
		return fail("GET /metrics: %v", err)
	}
	names, err := metrics.ValidateExposition(body)
	if err != nil {
		return fail("exposition does not parse: %v", err)
	}
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	required := []string{
		"sqlcheckd_requests_total",
		"sqlcheckd_request_seconds",
		"sqlcheckd_request_decode_seconds",
		"sqlcheckd_queue_len",
		"sqlcheckd_queue_capacity",
		"sqlcheckd_jobs_submitted_total",
		"sqlciv_hotspots_checked_total",
		"sqlciv_verdict_memo_hits_total",
		"sqlciv_verdict_cache_warm_pct",
		"sqlciv_degradations_total",
		"sqlciv_findings_total",
		"sqlciv_analysis_seconds",
		"go_goroutines",
		"go_heap_alloc_bytes",
	}
	for _, want := range required {
		if !have[want] {
			return fail("/metrics is missing series %s", want)
		}
	}

	// The degraded request's full span trace must be retrievable after the
	// fact from the flight recorder.
	flightBody, err := httpGet(ctx, base+"/debug/flight")
	if err != nil {
		return fail("GET /debug/flight: %v", err)
	}
	var flight struct {
		Retained []struct {
			ID       string `json:"id"`
			Degraded bool   `json:"degraded"`
		} `json:"retained"`
	}
	if err := json.Unmarshal(flightBody, &flight); err != nil {
		return fail("flight snapshot: %v", err)
	}
	var degradedID string
	for _, e := range flight.Retained {
		if e.Degraded {
			degradedID = e.ID
		}
	}
	if degradedID == "" {
		return fail("flight recorder retained no degraded entry: %s", flightBody)
	}
	entryBody, err := httpGet(ctx, base+"/debug/flight?id="+degradedID)
	if err != nil {
		return fail("GET /debug/flight?id=%s: %v", degradedID, err)
	}
	var entry struct {
		Trace []json.RawMessage `json:"trace"`
	}
	if err := json.Unmarshal(entryBody, &entry); err != nil {
		return fail("flight entry: %v", err)
	}
	if len(entry.Trace) == 0 {
		return fail("retained entry %s has no span trace", degradedID)
	}

	fmt.Printf("sqlcheckd: metrics-smoke ok: %d series parse, degraded request %s retained %d span events\n",
		len(names), degradedID, len(entry.Trace))
	return 0
}

func httpGet(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", url, resp.Status, body)
	}
	return body, nil
}
