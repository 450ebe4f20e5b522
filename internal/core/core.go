// Package core is the public facade of the analyzer: PHP sources in, bug
// reports or "verified" out (the paper's Figure 3 workflow). It runs the
// string-taint analysis (phase 1) on each top-level page, then the
// policy-conformance checker (phase 2) on every hotspot's annotated query
// grammar, and aggregates the per-application statistics Table 1 reports:
// files, lines, grammar sizes |V| and |R|, the two phase times, and the
// direct/indirect error counts.
package core

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"sqlciv/internal/analysis"
	"sqlciv/internal/budget"
	"sqlciv/internal/grammar"
	"sqlciv/internal/obs"
	"sqlciv/internal/policy"
	"sqlciv/internal/vcache"
)

// Options configures an analysis run.
type Options struct {
	Analysis analysis.Options
	// Parallel sets how many pages are analyzed concurrently (each page is
	// an independent program with its own grammar, so per-page analyses
	// parallelize perfectly — the improvement §5.3 suggests: "straight-
	// forward use of memorization or concurrent executions of the analyzer
	// could improve the performance dramatically"). 0 or 1 = sequential.
	Parallel int
	// ParallelHotspots sets how many hotspot policy checks run concurrently
	// across the whole application (one bounded worker pool shared by all
	// pages). 0 or 1 = sequential. Results are identical either way: the
	// checker produces canonically ordered reports, so scheduling order
	// cannot leak into the output.
	ParallelHotspots int
	// Budget bounds the run's resources. The zero value is unlimited;
	// Timeout covers the whole run, the remaining limits apply per unit
	// (one page analysis or one hotspot check). An over-budget unit
	// degrades to an explicit analysis-incomplete finding — never a silent
	// pass — so generous budgets change nothing and tight budgets only add
	// conservative reports.
	Budget budget.Limits
	// BeforeHotspotCheck, when set, runs before each hotspot's policy check
	// inside that hotspot's recovery scope. It exists for fault-injection
	// tests: a hook that panics or sleeps past the budget must degrade only
	// its own hotspot.
	BeforeHotspotCheck func(analysis.Hotspot)
	// Tracer, when set, observes the run: a span per phase, per page
	// analysis, and per hotspot check (with the cascade's interior spans
	// and counters hanging under it), plus live progress totals. Every
	// Finding and Degradation records the id of the span it arose under.
	// nil disables tracing at zero cost.
	Tracer *obs.Tracer
	// VerdictCache, when set, persists hotspot verdicts and slice censuses
	// across runs, keyed by the slice key of each hotspot's query-grammar
	// slice plus the policy version (see internal/vcache), so a hit costs
	// one pass over the slice and no compaction. The analyzer only
	// reads and buffers entries; the caller owns the store's lifecycle and
	// must Flush (or Close) it for this run's verdicts to reach disk.
	// Invalid or stale entries are ignored, never trusted — a bad cache can
	// cost time, not findings. nil disables persistence.
	VerdictCache *vcache.Store
	// Session, when set, carries incremental state (per-page dependency
	// memos, a cross-run parse cache, optionally a persistent summary
	// store) across runs: pages whose include closure is byte-identical to
	// a prior run replay their findings without re-parsing, re-lowering, or
	// re-checking; only dirtied pages recompute. Requires an
	// analysis.MapResolver, whose sources are hashed; other resolvers
	// silently run cold. Safe to share across concurrent runs. It is the one
	// switch for incremental re-analysis: nil runs cold.
	Session *Session
	// Checker, when set, is the policy checker the run executes on instead
	// of a fresh one — the long-lived-daemon path: a resident checker keeps
	// its in-memory memo, keyed by slice key, warm across requests, so
	// repeat submissions of unchanged apps answer without compacting a
	// slice. The caller owns its configuration (Disk,
	// UseMarkerConstruction — VerdictCache is ignored when Checker is set)
	// and may share one checker across concurrent runs; verdicts are
	// content-addressed, so sharing can only add cache hits, never change
	// findings. The cache counters on AppResult count this run's own
	// hotspot checks, whoever else shares the checker.
	Checker *policy.Checker
}

// AutoParallel maps the CLI parallelism convention onto the Options one.
// Command-line flags use "0 = one worker per core" while Options.Parallel
// and Options.ParallelHotspots use "0 or 1 = sequential"; this function is
// the single place the two conventions meet: 0 becomes GOMAXPROCS,
// negative values clamp to sequential, and positive values pass through.
func AutoParallel(n int) int {
	if n == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if n < 0 {
		return 1
	}
	return n
}

// GuessEntries picks an application's top-level pages when the caller names
// none, by the sqlcheck CLI convention: every source that is not obviously
// an include or library file, in sorted order.
func GuessEntries(sources map[string]string) []string {
	var out []string
	for path := range sources {
		base := filepath.Base(path)
		dir := filepath.Dir(path)
		if strings.HasPrefix(base, "common") || strings.HasPrefix(base, "class") ||
			strings.HasPrefix(base, "lib") || strings.HasPrefix(base, "config") ||
			strings.HasPrefix(base, "session") || strings.HasPrefix(base, "encode") ||
			strings.Contains(dir, "includes") || strings.Contains(dir, "languages") {
			continue
		}
		out = append(out, path)
	}
	sort.Strings(out)
	return out
}

// Finding is one deduplicated SQLCIV report.
type Finding struct {
	Entry   string // the page whose analysis produced it
	File    string // file containing the hotspot
	Line    int
	Call    string
	Check   policy.Check
	Label   grammar.Label
	Witness string
	// Source names the untrusted origin when tracked ("_GET[userid]").
	Source string
	// SpanID is the trace span the finding arose under (the hotspot span,
	// or the page span for page-level degradations); 0 when untraced.
	SpanID uint64
}

// Direct reports whether the finding involves directly user-controlled
// data.
func (f Finding) Direct() bool { return f.Label&grammar.Direct != 0 }

func (f Finding) String() string {
	if f.Check == policy.CheckAnalysisIncomplete {
		if f.Line == 0 {
			return fmt.Sprintf("%s: page analysis incomplete (%s) — not verified", f.File, f.Witness)
		}
		return fmt.Sprintf("%s:%d (%s): analysis incomplete (%s) — not verified", f.File, f.Line, f.Call, f.Witness)
	}
	kind := "indirect"
	if f.Direct() {
		kind = "direct"
	}
	src := ""
	if f.Source != "" {
		src = " from " + f.Source
	}
	return fmt.Sprintf("%s:%d (%s): %s SQLCIV [%s]%s, e.g. untrusted part %q",
		f.File, f.Line, f.Call, kind, f.Check, src, f.Witness)
}

// HotspotResult pairs a hotspot with its policy verdict.
type HotspotResult struct {
	analysis.Hotspot
	Policy *policy.Result
	// SpanID is the trace span of this hotspot's check; 0 when untraced.
	SpanID uint64
}

// PageResult is the outcome for one top-level page.
type PageResult struct {
	Entry    string
	Analysis *analysis.Result
	Hotspots []HotspotResult
	// Degraded is set when phase 1 for this page was cut short; Analysis is
	// then an empty placeholder and the page contributes an
	// analysis-incomplete finding.
	Degraded *budget.Exceeded
	// SpanID is the trace span of this page's analysis; 0 when untraced.
	SpanID uint64
}

// Degradation records one unit (page or hotspot) whose analysis was cut
// short, with enough detail to diagnose it: the budget reason, the sentinel
// detail, and — for recovered panics — the goroutine stack.
type Degradation struct {
	Entry  string
	File   string // hotspot file; empty for a page-level degradation
	Line   int
	Reason budget.Reason
	Detail string
	Stack  string
	// SpanID is the trace span of the degraded unit; 0 when untraced.
	SpanID uint64
}

// AppResult aggregates a whole-application run.
type AppResult struct {
	Pages    []PageResult
	Findings []Finding

	// DegradedHotspots / DegradedPages count units whose analysis was cut
	// short (budget, cancellation, or a recovered panic); Degradations
	// carries the details. A nonzero count means the run is NOT a
	// verification of those units — each also appears as an
	// analysis-incomplete finding.
	DegradedHotspots int
	DegradedPages    int
	Degradations     []Degradation
	// BudgetSteps sums the abstract steps consumed across hotspot checks;
	// BudgetMemHigh is the largest single-unit memory high-water estimate.
	// Both are 0 on fully unbudgeted runs.
	BudgetSteps   int64
	BudgetMemHigh int64

	Files    int
	Lines    int
	NumNTs   int
	NumProds int
	// StringAnalysisTime and CheckTime sum the per-page / per-hotspot phase
	// durations (comparable to the paper's Table 1 columns regardless of
	// parallelism); the Wall fields are the elapsed clock time of each
	// phase, which is what parallelism and memoization actually shrink.
	StringAnalysisTime time.Duration
	CheckTime          time.Duration
	StringAnalysisWall time.Duration
	CheckWall          time.Duration
	// Verdict-cache and parse-cache traffic for this run: the probes of the
	// hotspots it checked and the loads of its pages. Hit counts depend on
	// scheduling under parallelism (which of two identical hotspots
	// computes and which hits), so they are observability data, not part of
	// the analysis result proper.
	VerdictCacheHits   int64
	VerdictCacheMisses int64
	DiskCacheHits      int64
	DiskCacheMisses    int64
	ParseCacheHits     int64
	ParseCacheMisses   int64
	// Slice-compaction census summed across hotspot checks: the |V| / |R|
	// of the extracted per-hotspot slices, and of the compacted grammars
	// the cascade fixpoints actually ran over.
	SliceNTs     int64
	SliceProds   int64
	CompactNTs   int64
	CompactProds int64
	// Arena allocator census: the retained production-storage footprint of
	// the per-page grammars (flat symbol slabs plus reference tables), and
	// the probes the grammars of the pages this run analyzed made against
	// the process-global terminal-run intern pool. A falling intern hit rate
	// on an unchanged corpus means literal runs stopped deduplicating —
	// usually an upstream construction change.
	GrammarSlabBytes int64
	InternHits       int64
	InternMisses     int64
	// Incr carries the incremental-reuse counters when the run used a
	// Session (nil otherwise). Like the cache counters above, these are
	// observability data: replay changes where results come from, never
	// what they are.
	Incr *IncrStats
}

// Stats renders the run's performance counters (phase wall times and cache
// traffic) for diagnostic output; the analysis verdicts live in Summary.
func (r *AppResult) Stats() string {
	var b strings.Builder
	fmt.Fprintf(&b, "string-analysis: %v total across pages, %v wall\n",
		r.StringAnalysisTime.Round(time.Millisecond), r.StringAnalysisWall.Round(time.Millisecond))
	fmt.Fprintf(&b, "policy-check:    %v total across hotspots, %v wall\n",
		r.CheckTime.Round(time.Millisecond), r.CheckWall.Round(time.Millisecond))
	fmt.Fprintf(&b, "verdict cache:   %d hits, %d misses (memo); %d hits, %d misses (disk)\n",
		r.VerdictCacheHits, r.VerdictCacheMisses, r.DiskCacheHits, r.DiskCacheMisses)
	fmt.Fprintf(&b, "compaction:      slices |V|=%d |R|=%d -> compacted |V|=%d |R|=%d\n",
		r.SliceNTs, r.SliceProds, r.CompactNTs, r.CompactProds)
	fmt.Fprintf(&b, "parse cache:     %d hits, %d misses\n", r.ParseCacheHits, r.ParseCacheMisses)
	internPct := 0.0
	if t := r.InternHits + r.InternMisses; t > 0 {
		internPct = 100 * float64(r.InternHits) / float64(t)
	}
	fmt.Fprintf(&b, "grammar arena:   %d B page slabs; intern %d hits, %d misses (%.1f%% hit)\n",
		r.GrammarSlabBytes, r.InternHits, r.InternMisses, internPct)
	fmt.Fprintf(&b, "budget:          %d steps, %d B peak unit mem, %d degraded hotspots, %d degraded pages\n",
		r.BudgetSteps, r.BudgetMemHigh, r.DegradedHotspots, r.DegradedPages)
	if in := r.Incr; in != nil {
		fmt.Fprintf(&b, "incremental:     %d/%d pages replayed (%.1f%%); %d hotspots replayed, %d re-checked (%.1f%% replay); files %d reused, %d parsed (%.1f%% reuse); summaries %d hits, %d misses\n",
			in.PagesReplayed, in.PagesReplayed+in.PagesRecomputed, in.PageReplayPct(),
			in.HotspotsReplayed, in.HotspotsRechecked, in.HotspotReplayPct(),
			in.FilesReused, in.FilesParsed, in.FileReusePct(),
			in.SummaryHits, in.SummaryMisses)
	}
	return b.String()
}

// DirectFindings counts findings on directly user-controlled data.
func (r *AppResult) DirectFindings() int {
	n := 0
	for _, f := range r.Findings {
		if f.Direct() {
			n++
		}
	}
	return n
}

// IndirectFindings counts findings on indirectly user-influenced data;
// analysis-incomplete findings are counted by IncompleteFindings instead.
func (r *AppResult) IndirectFindings() int {
	return len(r.Findings) - r.DirectFindings() - r.IncompleteFindings()
}

// IncompleteFindings counts degraded units reported as analysis-incomplete.
func (r *AppResult) IncompleteFindings() int {
	n := 0
	for _, f := range r.Findings {
		if f.Check == policy.CheckAnalysisIncomplete {
			n++
		}
	}
	return n
}

// Verified reports whether the application produced no findings — by
// Theorem 3.4 it is then free of SQLCIVs relative to the modeled subset.
func (r *AppResult) Verified() bool { return len(r.Findings) == 0 }

// HotspotsChecked counts the hotspot checks that ran across all pages
// (degraded ones included — a cut-short check still ran).
func (r *AppResult) HotspotsChecked() int {
	n := 0
	for _, p := range r.Pages {
		n += len(p.Hotspots)
	}
	return n
}

// DegradationsByReason buckets the run's degradations by budget reason
// (e.g. "steps", "wall", "mem", "panic"), the shape metrics exporters want.
// Returns nil for a clean run.
func (r *AppResult) DegradationsByReason() map[string]int {
	if len(r.Degradations) == 0 {
		return nil
	}
	out := make(map[string]int, 4)
	for _, d := range r.Degradations {
		out[d.Reason.String()]++
	}
	return out
}

// AnalyzeApp analyzes every entry page of an application. Each entry is
// analyzed independently (PHP's execution model: every page is its own
// program), with includes resolved through the resolver; findings are
// deduplicated across pages by hotspot location and taint class.
//
// The run is two phases: string-taint analysis over all pages (concurrent
// when Options.Parallel > 1), then one shared memoizing policy checker over
// all hotspots (concurrent when Options.ParallelHotspots > 1) — hotspots
// with canonically equal query grammars, common when pages share includes,
// are checked once and served from the verdict cache after that.
func AnalyzeApp(resolver analysis.Resolver, entries []string, opts Options) (*AppResult, error) {
	return AnalyzeAppCtx(context.Background(), resolver, entries, opts)
}

// AnalyzeAppCtx is AnalyzeApp under ctx. Cancellation, ctx's deadline, and
// every limit in opts.Budget degrade the affected units (pages or hotspots)
// to explicit analysis-incomplete findings; the call itself still returns a
// complete AppResult. An error is returned only for genuine input failures
// (an entry that cannot be loaded).
func AnalyzeAppCtx(ctx context.Context, resolver analysis.Resolver, entries []string, opts Options) (*AppResult, error) {
	if opts.Budget.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Budget.Timeout)
		defer cancel()
	}
	unitLimits := budget.Limits{
		HotspotTimeout: opts.Budget.HotspotTimeout,
		MaxSteps:       opts.Budget.MaxSteps,
		MaxMemBytes:    opts.Budget.MaxMemBytes,
	}
	// Incremental mode: hash the project, then serve every page whose
	// recorded dependency closure is byte-identical from the session memo
	// (or the persistent summary store) instead of re-analyzing it. inc is
	// nil on cold runs and when the resolver is not a MapResolver.
	mr, _ := resolver.(*analysis.MapResolver)
	inc := opts.Session.begin(mr, entries, opts.Analysis)
	// Pages load through a MapResolver of the run's own, over the session's
	// parse cache or the caller's, so the parse counters it reports are this
	// run's loads alone.
	var loads *analysis.MapResolver
	switch {
	case inc != nil:
		loads = inc.resolver
	case mr != nil:
		loads = mr.Cache().Resolver(mr.Sources)
	}
	if loads != nil {
		resolver = loads
	}

	// ---- phase 1: string-taint analysis per page -----------------------
	tr := opts.Tracer
	tr.AddPagesTotal(len(entries))
	wall1 := time.Now()
	p1 := tr.Start("phase", "string-analysis")
	workers := opts.Parallel
	if workers < 1 {
		workers = 1
	}
	pages := make([]PageResult, len(entries))
	errs := make([]error, len(entries))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, entry := range entries {
		if inc != nil {
			if pr, ok := inc.replay(i, entry); ok {
				// Replayed: the page's dependency closure is byte-identical
				// to when it was memoized, so its prior outcome is reused
				// without re-parsing or re-lowering anything. The span exists
				// only to keep trace/progress totals consistent.
				psp := p1.Child("page", entry,
					obs.Attr{Key: "entry", Val: entry},
					obs.Attr{Key: "replayed", Val: inc.replaySrc[i]})
				psp.End()
				tr.PageDone(false)
				pages[i] = pr
				continue
			}
		}
		wg.Add(1)
		go func(i int, entry string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			// The lane is acquired after winning a semaphore slot, so a run
			// with N workers renders exactly N trace lanes.
			lane := tr.AcquireLane()
			defer tr.ReleaseLane(lane)
			psp := p1.Child("page", entry, obs.Attr{Key: "entry", Val: entry})
			psp.SetLane(lane)
			// Pages are bounded by the run deadline and the per-unit step /
			// memory limits, but not by HotspotTimeout (a phase 2 knob).
			pb := budget.New(ctx, budget.Limits{
				MaxSteps: opts.Budget.MaxSteps, MaxMemBytes: opts.Budget.MaxMemBytes})
			// Dirty pages load behind a per-page dependency recorder, so
			// their closure is captured for the next run.
			var pageResolver analysis.Resolver = resolver
			if inc != nil {
				pageResolver = inc.recorder(i)
			}
			ar, err := analysis.AnalyzeT(pageResolver, entry, opts.Analysis, pb, psp)
			psp.Count("budget.steps", pb.Steps())
			psp.Count("budget.mem.high", pb.MemHigh())
			if err != nil {
				if exc, ok := err.(*budget.Exceeded); ok {
					// Degraded, not failed: the page gets an empty analysis
					// and an analysis-incomplete finding downstream.
					psp.SetAttr("degraded", exc.Reason.String())
					psp.End()
					tr.PageDone(true)
					pages[i] = PageResult{Entry: entry,
						Analysis: &analysis.Result{G: grammar.New()}, Degraded: exc,
						SpanID: psp.ID()}
					return
				}
				psp.End()
				tr.PageDone(false)
				errs[i] = fmt.Errorf("core: %s: %w", entry, err)
				return
			}
			psp.SetAttr("hotspots", fmt.Sprint(len(ar.Hotspots)))
			psp.End()
			tr.PageDone(false)
			pages[i] = PageResult{Entry: entry, Analysis: ar,
				Hotspots: make([]HotspotResult, len(ar.Hotspots)), SpanID: psp.ID()}
		}(i, entry)
	}
	wg.Wait()
	p1.End()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	res := &AppResult{StringAnalysisWall: time.Since(wall1)}

	// ---- phase 2: policy cascade per hotspot ---------------------------
	wall2 := time.Now()
	p2 := tr.Start("phase", "policy-check")
	checker := opts.Checker
	if checker == nil {
		checker = policy.New()
		checker.Disk = opts.VerdictCache
	}
	type job struct{ page, slot int }
	var jobs []job
	for i := range pages {
		if inc != nil && inc.replayed[i] {
			// A replayed page's hotspot verdicts came with it; no checks run.
			continue
		}
		hits, misses := pages[i].Analysis.G.InternStats()
		res.InternHits += hits
		res.InternMisses += misses
		for j := range pages[i].Hotspots {
			jobs = append(jobs, job{page: i, slot: j})
		}
	}
	tr.AddHotspotsTotal(len(jobs))
	check := func(jb job, lane int) {
		page := &pages[jb.page]
		h := page.Analysis.Hotspots[jb.slot]
		hsp := p2.Child("hotspot", fmt.Sprintf("%s:%d", h.File, h.Line),
			obs.Attr{Key: "entry", Val: page.Entry},
			obs.Attr{Key: "call", Val: h.Call})
		hsp.SetLane(lane)
		hb := budget.New(ctx, unitLimits)
		pr := func() (pr *policy.Result) {
			// CheckHotspotT recovers its own interior; this outer recovery
			// isolates the hook, so one poisoned hotspot degrades alone
			// instead of killing a worker.
			defer func() {
				if r := recover(); r != nil {
					pr = policy.DegradedResult(r, hb)
				}
			}()
			if opts.BeforeHotspotCheck != nil {
				opts.BeforeHotspotCheck(h)
			}
			return checker.CheckHotspotT(page.Analysis.G, h.Root, hb, hsp)
		}()
		hsp.SetAttr("verdict", pr.Verdict.String())
		if pr.Verdict == policy.VerdictUnknown {
			hsp.SetAttr("degraded", pr.Degraded.Reason.String())
		}
		hsp.Count("budget.steps", pr.BudgetSteps)
		hsp.Count("budget.mem.high", pr.BudgetMemHigh)
		hsp.End()
		tr.HotspotDone(pr.Verdict == policy.VerdictUnknown)
		page.Hotspots[jb.slot] = HotspotResult{Hotspot: h, Policy: pr, SpanID: hsp.ID()}
	}
	if hw := opts.ParallelHotspots; hw > 1 {
		hsem := make(chan struct{}, hw)
		for _, jb := range jobs {
			wg.Add(1)
			go func(jb job) {
				defer wg.Done()
				hsem <- struct{}{}
				defer func() { <-hsem }()
				lane := tr.AcquireLane()
				defer tr.ReleaseLane(lane)
				check(jb, lane)
			}(jb)
		}
		wg.Wait()
	} else {
		for _, jb := range jobs {
			check(jb, 0)
		}
	}
	p2.End()
	res.CheckWall = time.Since(wall2)
	for _, jb := range jobs {
		pr := pages[jb.page].Hotspots[jb.slot].Policy
		count(pr.Memo, &res.VerdictCacheHits, &res.VerdictCacheMisses)
		count(pr.Disk, &res.DiskCacheHits, &res.DiskCacheMisses)
	}
	if loads != nil {
		res.ParseCacheHits, res.ParseCacheMisses = loads.ParseCacheStats()
	}
	seenFinding := map[string]bool{}
	for _, page := range pages {
		res.StringAnalysisTime += page.Analysis.AnalysisTime
		res.NumNTs += page.Analysis.NumNTs
		res.NumProds += page.Analysis.NumProds
		if page.Analysis.G != nil {
			res.GrammarSlabBytes += page.Analysis.G.SlabBytes()
		}
		if exc := page.Degraded; exc != nil {
			res.DegradedPages++
			res.Degradations = append(res.Degradations, Degradation{
				Entry: page.Entry, Reason: exc.Reason, Detail: exc.Detail,
				SpanID: page.SpanID})
			key := page.Entry + ":incomplete"
			if !seenFinding[key] {
				seenFinding[key] = true
				res.Findings = append(res.Findings, Finding{
					Entry:   page.Entry,
					File:    page.Entry,
					Check:   policy.CheckAnalysisIncomplete,
					Witness: firstLine(exc.Error()),
					SpanID:  page.SpanID,
				})
			}
		}
		for _, hr := range page.Hotspots {
			res.CheckTime += hr.Policy.CheckTime
			res.SliceNTs += int64(hr.Policy.SliceNTs)
			res.SliceProds += int64(hr.Policy.SliceProds)
			res.CompactNTs += int64(hr.Policy.CompactNTs)
			res.CompactProds += int64(hr.Policy.CompactProds)
			res.BudgetSteps += hr.Policy.BudgetSteps
			if hr.Policy.BudgetMemHigh > res.BudgetMemHigh {
				res.BudgetMemHigh = hr.Policy.BudgetMemHigh
			}
			if hr.Policy.Verdict == policy.VerdictUnknown {
				res.DegradedHotspots++
				res.Degradations = append(res.Degradations, Degradation{
					Entry: page.Entry, File: hr.File, Line: hr.Line,
					Reason: hr.Policy.Degraded.Reason,
					Detail: hr.Policy.Degraded.Detail,
					Stack:  hr.Policy.Stack,
					SpanID: hr.SpanID})
			}
			for _, rep := range hr.Policy.Reports {
				// One finding per hotspot and taint class: several labeled
				// nonterminals failing at the same query site are one
				// error report, as a human would count them. An
				// analysis-incomplete report dedups on its own key so a
				// degraded hotspot never hides behind — or hides — a real
				// finding at the same location.
				var key string
				if rep.Check == policy.CheckAnalysisIncomplete {
					key = fmt.Sprintf("%s:%d:incomplete", hr.File, hr.Line)
				} else {
					direct := rep.Label&grammar.Direct != 0
					key = fmt.Sprintf("%s:%d:%v", hr.File, hr.Line, direct)
				}
				if seenFinding[key] {
					continue
				}
				seenFinding[key] = true
				res.Findings = append(res.Findings, Finding{
					Entry:   page.Entry,
					File:    hr.File,
					Line:    hr.Line,
					Call:    hr.Call,
					Check:   rep.Check,
					Label:   rep.Label,
					Witness: rep.Witness,
					Source:  rep.Source,
					SpanID:  hr.SpanID,
				})
			}
		}
		res.Pages = append(res.Pages, page)
	}
	sort.Slice(res.Findings, func(i, j int) bool {
		if res.Findings[i].File != res.Findings[j].File {
			return res.Findings[i].File < res.Findings[j].File
		}
		return res.Findings[i].Line < res.Findings[j].Line
	})
	res.Files = len(resolver.Files())
	res.Lines = totalLines(resolver)
	if inc != nil {
		inc.commit(pages, res)
	}
	tr.AddFindings(len(res.Findings))
	return res, nil
}

// count adds one verdict-cache probe to a run's hit or miss counter.
func count(p policy.Probe, hits, misses *int64) {
	switch p {
	case policy.ProbeHit:
		*hits++
	case policy.ProbeMiss:
		*misses++
	}
}

// firstLine trims s to its first line, keeping multi-line budget details
// (panic values with stacks) out of one-line findings.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// totalLines counts source lines across the project when the resolver
// exposes raw sources (the in-memory resolver does); otherwise 0.
func totalLines(r analysis.Resolver) int {
	mr, ok := r.(*analysis.MapResolver)
	if !ok {
		return 0
	}
	n := 0
	for _, src := range mr.Sources {
		n += strings.Count(src, "\n") + 1
	}
	return n
}

// Summary renders a short human-readable report.
func (r *AppResult) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "files=%d lines=%d |V|=%d |R|=%d string-analysis=%v check=%v\n",
		r.Files, r.Lines, r.NumNTs, r.NumProds, r.StringAnalysisTime.Round(time.Millisecond), r.CheckTime.Round(time.Millisecond))
	if r.DegradedHotspots > 0 || r.DegradedPages > 0 {
		fmt.Fprintf(&b, "WARNING: analysis incomplete for %d hotspot(s), %d page(s) — those units are NOT verified\n",
			r.DegradedHotspots, r.DegradedPages)
	}
	if r.Verified() {
		b.WriteString("VERIFIED: no SQLCIVs found\n")
		return b.String()
	}
	if inc := r.IncompleteFindings(); inc > 0 {
		fmt.Fprintf(&b, "%d findings (%d direct, %d indirect, %d incomplete):\n",
			len(r.Findings), r.DirectFindings(), r.IndirectFindings(), inc)
	} else {
		fmt.Fprintf(&b, "%d findings (%d direct, %d indirect):\n", len(r.Findings), r.DirectFindings(), r.IndirectFindings())
	}
	for _, f := range r.Findings {
		b.WriteString("  " + f.String() + "\n")
	}
	return b.String()
}
