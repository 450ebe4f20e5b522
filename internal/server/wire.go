// wire.go defines the daemon's HTTP+JSON request and response shapes and
// their lossless conversions to and from the library types. The wire format
// mirrors core.Finding / core.Degradation field for field (numeric Check and
// Label alongside their rendered names), so a client — or the differential
// test suite — can reconstruct the exact in-process result and compare it
// DeepEqual against a local AnalyzeAppCtx run.
package server

import (
	"fmt"
	"net/http"
	"time"

	"sqlciv/internal/budget"
	"sqlciv/internal/core"
	"sqlciv/internal/grammar"
	"sqlciv/internal/obs"
	"sqlciv/internal/policy"
	"sqlciv/internal/xss"
)

// TenantHeader names the request header carrying the tenant id. Requests
// without it run under the default tenant.
const TenantHeader = "X-Sqlciv-Tenant"

// Request is the body of POST /v1/analyze and POST /v1/jobs: an application
// to analyze, inline or by resolver root.
type Request struct {
	// Sources is the inline path→PHP-source map of the application.
	Sources map[string]string `json:"sources,omitempty"`
	// Root names a directory on the server's filesystem to load .php files
	// from instead of inline sources. Only honored when the server was
	// started with an allowed root prefix; mutually exclusive with Sources.
	Root string `json:"root,omitempty"`
	// Entries lists the top-level pages. Empty means guess: every .php file
	// that is not obviously an include (the sqlcheck CLI convention).
	Entries []string       `json:"entries,omitempty"`
	Options RequestOptions `json:"options"`
	// Budget bounds this request's analysis units. Each limit is clamped
	// against the tenant's ceiling: the effective limit is the smaller of
	// the two, so a tenant can only tighten its budgets, never escape them.
	Budget RequestBudget `json:"budget"`
}

// RequestOptions mirrors the analysis knobs the sqlcheck CLI exposes.
type RequestOptions struct {
	// Parallel asks for this many page/hotspot workers, clamped to the
	// server's per-request ceiling (default 1: requests parallelize across
	// the worker pool, not inside one job).
	Parallel int `json:"parallel,omitempty"`
	// NoGuardRefinement disables regex-guard branch refinement (ablation).
	NoGuardRefinement bool `json:"no_guard_refinement,omitempty"`
	// MagicQuotes models magic_quotes_gpc=On.
	MagicQuotes bool `json:"magic_quotes,omitempty"`
	// XSS also audits every entry page's HTML output for cross-site
	// scripting.
	XSS bool `json:"xss,omitempty"`
	// Incremental routes the job through a resident incremental session
	// keyed by (tenant, app identity): pages whose include closure is
	// byte-identical to the previous submission replay their prior outcome
	// instead of re-parsing, re-lowering, and re-checking. Findings stay
	// byte-identical to a cold run; the response's incr_* stats report the
	// reuse.
	Incremental bool `json:"incremental,omitempty"`
	// EmitPack additionally compiles the run's per-hotspot query languages
	// into a runtime policy pack (see internal/enforce) and returns it in
	// the response's pack field. GET /v1/pack is the convenience route that
	// sets this and serves the raw pack bytes.
	EmitPack bool `json:"emit_pack,omitempty"`
}

// RequestBudget is budget.Limits in wire-friendly milliseconds.
type RequestBudget struct {
	TimeoutMS        int64 `json:"timeout_ms,omitempty"`
	HotspotTimeoutMS int64 `json:"hotspot_timeout_ms,omitempty"`
	MaxSteps         int64 `json:"max_steps,omitempty"`
	MaxMemBytes      int64 `json:"max_mem_bytes,omitempty"`
}

// Limits converts the wire budget to budget.Limits.
func (b RequestBudget) Limits() budget.Limits {
	return budget.Limits{
		Timeout:        time.Duration(b.TimeoutMS) * time.Millisecond,
		HotspotTimeout: time.Duration(b.HotspotTimeoutMS) * time.Millisecond,
		MaxSteps:       b.MaxSteps,
		MaxMemBytes:    b.MaxMemBytes,
	}
}

// Finding is the wire form of one core.Finding. Check and Label carry the
// raw library values (the names are derived, for humans), so Core() is
// lossless.
type Finding struct {
	Entry     string `json:"entry"`
	File      string `json:"file"`
	Line      int    `json:"line,omitempty"`
	Call      string `json:"call,omitempty"`
	Check     int    `json:"check"`
	CheckName string `json:"check_name"`
	Label     uint8  `json:"label,omitempty"`
	Kind      string `json:"kind"` // direct | indirect | unknown
	Witness   string `json:"witness"`
	Source    string `json:"source,omitempty"`
	// SpanID links the finding into the job's trace (see the /v1/jobs
	// progress snapshots); 0 / omitted when the run was untraced.
	SpanID uint64 `json:"span_id,omitempty"`
}

// Core reconstructs the library finding.
func (f Finding) Core() core.Finding {
	return core.Finding{
		Entry: f.Entry, File: f.File, Line: f.Line, Call: f.Call,
		Check: policy.Check(f.Check), Label: grammar.Label(f.Label),
		Witness: f.Witness, Source: f.Source, SpanID: f.SpanID,
	}
}

func findingFromCore(f core.Finding) Finding {
	kind := "indirect"
	if f.Direct() {
		kind = "direct"
	}
	if f.Check == policy.CheckAnalysisIncomplete {
		kind = "unknown"
	}
	return Finding{
		Entry: f.Entry, File: f.File, Line: f.Line, Call: f.Call,
		Check: int(f.Check), CheckName: f.Check.String(),
		Label: uint8(f.Label), Kind: kind,
		Witness: f.Witness, Source: f.Source, SpanID: f.SpanID,
	}
}

// Degradation is the wire form of one core.Degradation.
type Degradation struct {
	Entry      string `json:"entry"`
	File       string `json:"file,omitempty"`
	Line       int    `json:"line,omitempty"`
	Reason     uint8  `json:"reason"`
	ReasonName string `json:"reason_name"`
	Detail     string `json:"detail,omitempty"`
	Stack      string `json:"stack,omitempty"`
	SpanID     uint64 `json:"span_id,omitempty"`
}

// Core reconstructs the library degradation.
func (d Degradation) Core() core.Degradation {
	return core.Degradation{
		Entry: d.Entry, File: d.File, Line: d.Line,
		Reason: budget.Reason(d.Reason), Detail: d.Detail, Stack: d.Stack,
		SpanID: d.SpanID,
	}
}

func degradationFromCore(d core.Degradation) Degradation {
	return Degradation{
		Entry: d.Entry, File: d.File, Line: d.Line,
		Reason: uint8(d.Reason), ReasonName: d.Reason.String(),
		Detail: d.Detail, Stack: d.Stack, SpanID: d.SpanID,
	}
}

// XSSFinding is the wire form of one xss.Finding.
type XSSFinding struct {
	Entry     string `json:"entry"`
	Check     int    `json:"check"`
	CheckName string `json:"check_name"`
	Label     uint8  `json:"label,omitempty"`
	Kind      string `json:"kind"`
	Witness   string `json:"witness"`
}

// Core reconstructs the library XSS finding.
func (f XSSFinding) Core() xss.Finding {
	return xss.Finding{Entry: f.Entry, Check: xss.Check(f.Check),
		Label: grammar.Label(f.Label), Witness: f.Witness}
}

func xssFromCore(f xss.Finding) XSSFinding {
	kind := "indirect"
	if f.Direct() {
		kind = "direct"
	}
	return XSSFinding{Entry: f.Entry, Check: int(f.Check),
		CheckName: f.Check.String(), Label: uint8(f.Label), Kind: kind,
		Witness: f.Witness}
}

// Stats is the wire form of the run's performance counters — observability
// data, deliberately separate from the findings so the differential suite
// can compare analysis results exactly while durations and cache traffic
// vary run to run.
type Stats struct {
	StringAnalysisMS     int64 `json:"string_analysis_ms"`
	CheckMS              int64 `json:"check_ms"`
	StringAnalysisWallMS int64 `json:"string_analysis_wall_ms"`
	CheckWallMS          int64 `json:"check_wall_ms"`
	VerdictCacheHits     int64 `json:"verdict_cache_hits"`
	VerdictCacheMisses   int64 `json:"verdict_cache_misses"`
	DiskCacheHits        int64 `json:"disk_cache_hits"`
	DiskCacheMisses      int64 `json:"disk_cache_misses"`
	ParseCacheHits       int64 `json:"parse_cache_hits"`
	ParseCacheMisses     int64 `json:"parse_cache_misses"`
	BudgetSteps          int64 `json:"budget_steps"`
	BudgetMemHigh        int64 `json:"budget_mem_high"`
	GrammarSlabBytes     int64 `json:"grammar_slab_bytes"`
	InternHits           int64 `json:"intern_hits"`
	InternMisses         int64 `json:"intern_misses"`
	// Incremental-session counters, present only when the request opted into
	// incremental re-analysis (omitempty keeps non-incremental payloads —
	// and the golden fixtures — unchanged).
	IncrFilesHashed       int64 `json:"incr_files_hashed,omitempty"`
	IncrFilesReused       int64 `json:"incr_files_reused,omitempty"`
	IncrFilesParsed       int64 `json:"incr_files_parsed,omitempty"`
	IncrPagesReplayed     int64 `json:"incr_pages_replayed,omitempty"`
	IncrPagesRecomputed   int64 `json:"incr_pages_recomputed,omitempty"`
	IncrHotspotsReplayed  int64 `json:"incr_hotspots_replayed,omitempty"`
	IncrHotspotsRechecked int64 `json:"incr_hotspots_rechecked,omitempty"`
	// Pages and HotspotsChecked are the run's deterministic unit census
	// (unlike the timings above): entry pages analyzed and hotspot checks
	// executed, degraded units included.
	Pages           int `json:"pages"`
	HotspotsChecked int `json:"hotspots_checked"`
}

// Response is the full analysis payload of POST /v1/analyze and of a
// finished job's report.
type Response struct {
	Verified bool `json:"verified"`
	Files    int  `json:"files"`
	Lines    int  `json:"lines"`
	GrammarV int  `json:"grammar_nonterminals"`
	GrammarR int  `json:"grammar_productions"`
	// Findings is never null: an empty list is a verification.
	Findings         []Finding     `json:"findings"`
	DegradedHotspots int           `json:"degraded_hotspots,omitempty"`
	DegradedPages    int           `json:"degraded_pages,omitempty"`
	Degradations     []Degradation `json:"degradations,omitempty"`
	XSS              []XSSFinding  `json:"xss,omitempty"`
	Stats            Stats         `json:"stats"`
	// Pack is the serialized runtime policy pack, present only when the
	// request set options.emit_pack (base64 on the wire, per encoding/json's
	// []byte convention); PackStats summarizes its coverage. Responses
	// without emit_pack are byte-identical to pre-pack servers.
	Pack      []byte          `json:"pack,omitempty"`
	PackStats *core.PackStats `json:"pack_stats,omitempty"`
}

// CoreResult reconstructs the analysis-result fields of the library
// AppResult that travel on the wire (findings, degradations, census) for
// differential comparison against an in-process run.
func (r *Response) CoreResult() *core.AppResult {
	res := &core.AppResult{
		Files: r.Files, Lines: r.Lines,
		NumNTs: r.GrammarV, NumProds: r.GrammarR,
		DegradedHotspots: r.DegradedHotspots,
		DegradedPages:    r.DegradedPages,
	}
	for _, f := range r.Findings {
		res.Findings = append(res.Findings, f.Core())
	}
	for _, d := range r.Degradations {
		res.Degradations = append(res.Degradations, d.Core())
	}
	return res
}

// responseFromResult renders an AppResult (and optional XSS findings) to the
// wire. exposeSpans keeps the findings' and degradations' span ids (async
// jobs, where they link into the job trace); sync responses pass false so
// the payload is byte-identical to an untraced library run even though the
// job was traced for the flight recorder.
func responseFromResult(res *core.AppResult, xssFindings []xss.Finding, exposeSpans bool) *Response {
	out := &Response{
		Verified: res.Verified() && len(xssFindings) == 0,
		Files:    res.Files, Lines: res.Lines,
		GrammarV: res.NumNTs, GrammarR: res.NumProds,
		Findings:         []Finding{},
		DegradedHotspots: res.DegradedHotspots,
		DegradedPages:    res.DegradedPages,
		Stats: Stats{
			StringAnalysisMS:     res.StringAnalysisTime.Milliseconds(),
			CheckMS:              res.CheckTime.Milliseconds(),
			StringAnalysisWallMS: res.StringAnalysisWall.Milliseconds(),
			CheckWallMS:          res.CheckWall.Milliseconds(),
			VerdictCacheHits:     res.VerdictCacheHits,
			VerdictCacheMisses:   res.VerdictCacheMisses,
			DiskCacheHits:        res.DiskCacheHits,
			DiskCacheMisses:      res.DiskCacheMisses,
			ParseCacheHits:       res.ParseCacheHits,
			ParseCacheMisses:     res.ParseCacheMisses,
			BudgetSteps:          res.BudgetSteps,
			BudgetMemHigh:        res.BudgetMemHigh,
			GrammarSlabBytes:     res.GrammarSlabBytes,
			InternHits:           res.InternHits,
			InternMisses:         res.InternMisses,
			Pages:                len(res.Pages),
			HotspotsChecked:      res.HotspotsChecked(),
		},
	}
	if in := res.Incr; in != nil {
		out.Stats.IncrFilesHashed = in.FilesHashed
		out.Stats.IncrFilesReused = in.FilesReused
		out.Stats.IncrFilesParsed = in.FilesParsed
		out.Stats.IncrPagesReplayed = in.PagesReplayed
		out.Stats.IncrPagesRecomputed = in.PagesRecomputed
		out.Stats.IncrHotspotsReplayed = in.HotspotsReplayed
		out.Stats.IncrHotspotsRechecked = in.HotspotsRechecked
	}
	for _, f := range res.Findings {
		wf := findingFromCore(f)
		if !exposeSpans {
			wf.SpanID = 0
		}
		out.Findings = append(out.Findings, wf)
	}
	for _, d := range res.Degradations {
		wd := degradationFromCore(d)
		if !exposeSpans {
			wd.SpanID = 0
		}
		out.Degradations = append(out.Degradations, wd)
	}
	for _, f := range xssFindings {
		out.XSS = append(out.XSS, xssFromCore(f))
	}
	return out
}

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// JobStatus is the body of GET /v1/jobs/<id> (and the acknowledgement of
// POST /v1/jobs). Progress is the job tracer's live snapshot while the job
// runs; Result (or Error) appears once the state reaches done (failed).
type JobStatus struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	State  string `json:"state"`
	// Progress is the live obs snapshot of the running analysis:
	// pages/hotspots done and degraded, findings so far, counter totals.
	Progress *ProgressSnapshot `json:"progress,omitempty"`
	Result   *Response         `json:"result,omitempty"`
	Error    *ErrorBody        `json:"error,omitempty"`
}

// ProgressSnapshot is the wire form of a job's live progress: obs.Snapshot
// itself, whose JSON tags are the wire schema.
type ProgressSnapshot = obs.Snapshot

// ErrorBody is the structured error envelope every non-2xx response
// carries: {"error": {"code": ..., "message": ...}}.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// Error codes.
const (
	CodeBadRequest  = "bad-request"   // malformed JSON, invalid fields
	CodeBodyTooBig  = "body-too-big"  // request exceeded the body cap
	CodeBadApp      = "bad-app"       // sources/entries that cannot be analyzed
	CodeRootDenied  = "root-denied"   // resolver root outside the allowed prefix
	CodeQueueFull   = "queue-full"    // bounded queue overflow
	CodeTenantLimit = "tenant-limit"  // tenant in-flight cap reached
	CodeNotFound    = "not-found"     // unknown job id or path
	CodeInternal    = "internal"      // analyzer input failure
	CodeShutdown    = "shutting-down" // server is draining
)

// apiError is an error with an HTTP status and a wire code.
type apiError struct {
	status  int
	code    string
	message string
}

func (e *apiError) Error() string { return e.code + ": " + e.message }

func errf(status int, code, format string, args ...any) *apiError {
	return &apiError{status: status, code: code, message: fmt.Sprintf(format, args...)}
}

// decodeRequest decodes (see decode.go) and validates one analysis request
// body. Every failure is a structured *apiError — the fuzz target asserts
// the decoder can never panic or produce a bare 500.
func decodeRequest(body []byte) (*Request, *apiError) {
	var req Request
	if err := parseRequest(body, &req); err != nil {
		return nil, errf(http.StatusBadRequest, CodeBadRequest, "invalid JSON: %v", err)
	}
	if len(req.Sources) == 0 && req.Root == "" {
		return nil, errf(http.StatusBadRequest, CodeBadRequest, "one of sources or root is required")
	}
	if len(req.Sources) > 0 && req.Root != "" {
		return nil, errf(http.StatusBadRequest, CodeBadRequest, "sources and root are mutually exclusive")
	}
	if req.Options.Parallel < 0 || req.Budget.TimeoutMS < 0 || req.Budget.HotspotTimeoutMS < 0 ||
		req.Budget.MaxSteps < 0 || req.Budget.MaxMemBytes < 0 {
		return nil, errf(http.StatusBadRequest, CodeBadRequest, "negative option or budget value")
	}
	for path := range req.Sources {
		if path == "" {
			return nil, errf(http.StatusBadRequest, CodeBadRequest, "empty source path")
		}
	}
	for _, e := range req.Entries {
		if e == "" {
			return nil, errf(http.StatusBadRequest, CodeBadRequest, "empty entry name")
		}
	}
	return &req, nil
}
