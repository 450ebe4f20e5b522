package core

import (
	"fmt"
	"time"

	"sync"

	"sqlciv/internal/analysis"
	"sqlciv/internal/incr"
	"sqlciv/internal/policy"
	"sqlciv/internal/vcache"
)

// SessionConfig configures a reusable incremental session.
type SessionConfig struct {
	// Summaries, when set, persists per-page analysis summaries across
	// processes (see incr.Open): a fresh session probes the store before
	// recomputing a page, and clean recomputed pages are buffered back via
	// Put. The caller owns the store's lifecycle and must Flush (or Close)
	// it — or call Session.Flush — for this session's summaries to reach
	// disk. Corrupt, truncated, or version-mismatched summaries degrade to a
	// cold recompute, never a wrong reuse. nil keeps the session in-memory
	// only.
	Summaries *vcache.Store
}

// Session carries incremental-analysis state across AnalyzeAppCtx runs: a
// content-hash dependency memo per analyzed page and a cross-run parse
// cache. A warm session turns re-analysis after a single-file edit into a
// hash sweep plus a delta re-check — unchanged pages replay their prior
// hotspot verdicts byte-identically without re-parsing, re-lowering, or
// re-running the policy cascade; only pages whose include closure actually
// changed recompute, and their unchanged include files still come from the
// parse cache.
//
// A Session is safe for concurrent use by multiple runs (the daemon path:
// one session per served app root). Validation is strictly content-hashed,
// so concurrent runs over different project states can only cost cache
// efficiency, never correctness.
type Session struct {
	cfg   SessionConfig
	parse *analysis.ParseCache

	mu    sync.Mutex
	pages map[string]*pageMemo
}

// pageMemo is one page's memoized outcome plus the dependency closure that
// makes it valid.
type pageMemo struct {
	tag     string
	deps    []incr.Dep
	dynamic bool
	layout  incr.Hash
	page    PageResult // SpanIDs zeroed; Hotspots cloned on the way in and out
}

// NewSession returns an empty incremental session.
func NewSession(cfg SessionConfig) *Session {
	return &Session{cfg: cfg, parse: analysis.NewParseCache(), pages: map[string]*pageMemo{}}
}

// Flush writes buffered page summaries (and nothing else) to the configured
// persistent store. A no-op without one.
func (s *Session) Flush() error {
	if s == nil {
		return nil
	}
	return s.cfg.Summaries.Flush()
}

// Summaries returns the session's persistent summary store (nil when the
// session is in-memory only).
func (s *Session) Summaries() *vcache.Store {
	if s == nil {
		return nil
	}
	return s.cfg.Summaries
}

// Pages returns how many page memos the session currently holds.
func (s *Session) Pages() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pages)
}

// optionsTag renders the analysis configuration a memo is valid under. It
// shares the verdict cache's version-bump discipline by embedding
// policy.CacheVersion: a checker change that invalidates cached verdicts
// invalidates page summaries too, and any analysis option that changes
// phase-1 output keys the memo.
func optionsTag(a analysis.Options) string {
	return fmt.Sprintf("%s|incr-v3|guard=%t|depth=%d|slice=%t|mq=%t",
		policy.CacheVersion, a.DisableGuardRefinement, a.MaxIncludeDepth, a.SliceToSinks, a.MagicQuotes)
}

// incRun is the incremental bookkeeping for one AnalyzeAppCtx call: the
// run's content snapshot, the resolver phase 1 loads through (the run's own,
// over the session's parse cache), and which entries replayed instead of
// recomputing.
type incRun struct {
	ses      *Session
	tag      string
	snap     *incr.Snapshot
	resolver *analysis.MapResolver
	entries  []string
	replayed []bool
	recs     []*incr.Recorder // per entry; nil for replayed entries

	replaySrc []string // "memory" or "store", for trace attrs
	// summaries counts this run's summary-store lookups by what they found.
	summaries [3]int64
}

// begin prepares incremental bookkeeping for one run over mr's sources. It
// returns nil — run cold — without a session or a MapResolver.
func (s *Session) begin(mr *analysis.MapResolver, entries []string, aopts analysis.Options) *incRun {
	if s == nil || mr == nil {
		return nil
	}
	return &incRun{
		ses:       s,
		tag:       optionsTag(aopts),
		snap:      incr.NewSnapshot(mr.Sources),
		resolver:  s.parse.Resolver(mr.Sources),
		entries:   entries,
		replayed:  make([]bool, len(entries)),
		recs:      make([]*incr.Recorder, len(entries)),
		replaySrc: make([]string, len(entries)),
	}
}

// replay attempts to serve entry i from the session memo, then from the
// persistent summary store. On success the returned PageResult is a clone
// whose findings aggregate byte-identically to a recomputation.
func (r *incRun) replay(i int, entry string) (PageResult, bool) {
	s := r.ses
	s.mu.Lock()
	m := s.pages[entry]
	s.mu.Unlock()
	if m != nil && m.tag == r.tag && r.snap.Validate(m.deps, m.dynamic, m.layout) {
		r.replayed[i], r.replaySrc[i] = true, "memory"
		return m.replay(), true
	}
	if s.cfg.Summaries == nil {
		return PageResult{}, false
	}
	ps, look := incr.Get(s.cfg.Summaries, entry, r.tag)
	r.summaries[look]++
	if look != vcache.Found || !r.snap.Validate(ps.Deps, ps.Dynamic, ps.Layout) {
		return PageResult{}, false
	}
	page := pageFromSummary(ps)
	m = &pageMemo{tag: r.tag, deps: ps.Deps, dynamic: ps.Dynamic, layout: ps.Layout, page: clonePage(page)}
	s.mu.Lock()
	s.pages[entry] = m
	s.mu.Unlock()
	r.replayed[i], r.replaySrc[i] = true, "store"
	return page, true
}

// recorder returns the dependency-recording resolver for entry i's phase-1
// run. Each page gets its own recorder (page analysis is single-threaded).
func (r *incRun) recorder(i int) *incr.Recorder {
	rec := incr.NewRecorder(r.resolver, r.snap)
	r.recs[i] = rec
	return rec
}

// commit memoizes every clean recomputed page (in memory, and to the
// summary store when configured) and fills res.Incr with this run's
// incremental counters. Degraded pages and pages with any
// analysis-incomplete hotspot are never memoized: a retry could succeed, so
// replaying them would freeze a transient failure into the findings — the
// same rule the verdict cache applies.
func (r *incRun) commit(pages []PageResult, res *AppResult) {
	st := &IncrStats{FilesHashed: int64(r.snap.Files())}
	for i := range pages {
		page := &pages[i]
		if r.replayed[i] {
			st.PagesReplayed++
			st.HotspotsReplayed += int64(len(page.Hotspots))
			continue
		}
		st.PagesRecomputed++
		st.HotspotsRechecked += int64(len(page.Hotspots))
		rec := r.recs[i]
		if rec == nil || !memoizable(page) {
			continue
		}
		m := &pageMemo{
			tag:     r.tag,
			deps:    rec.Deps(),
			dynamic: rec.Dynamic(),
			layout:  r.snap.Layout(),
			page:    clonePage(*page),
		}
		r.ses.mu.Lock()
		r.ses.pages[page.Entry] = m
		r.ses.mu.Unlock()
		if store := r.ses.cfg.Summaries; store != nil {
			ps := summaryFromPage(page)
			ps.Deps, ps.Dynamic, ps.Layout = m.deps, m.dynamic, m.layout
			incr.Put(store, r.tag, ps)
		}
	}
	st.FilesReused, st.FilesParsed = res.ParseCacheHits, res.ParseCacheMisses
	st.SummaryHits = r.summaries[vcache.Found]
	st.SummaryMisses = r.summaries[vcache.Absent] + r.summaries[vcache.Rejected]
	st.SummaryErrors = r.summaries[vcache.Rejected]
	res.Incr = st
}

// replay clones the memoized page for a new run.
func (m *pageMemo) replay() PageResult { return clonePage(m.page) }

// clonePage copies a PageResult with its own Hotspots slice and all trace
// span ids cleared — a replayed page produced no spans in the run that
// replays it, and the memo must not alias a slice a caller may mutate. The
// *policy.Result and *analysis.Result pointers are shared: both are
// immutable once a check completes.
func clonePage(page PageResult) PageResult {
	page.SpanID = 0
	hs := make([]HotspotResult, len(page.Hotspots))
	for i, hr := range page.Hotspots {
		hr.SpanID = 0
		hs[i] = hr
	}
	page.Hotspots = hs
	return page
}

// memoizable reports whether a recomputed page's outcome may be replayed by
// later runs.
func memoizable(page *PageResult) bool {
	if page.Degraded != nil {
		return false
	}
	for _, hr := range page.Hotspots {
		if hr.Policy == nil || hr.Policy.Verdict == policy.VerdictUnknown {
			return false
		}
	}
	return true
}

// summaryFromPage serializes a clean page outcome for the persistent store.
// The caller fills the dependency fields.
func summaryFromPage(page *PageResult) *incr.PageSummary {
	ps := &incr.PageSummary{
		Entry:          page.Entry,
		AnalysisTimeNS: int64(page.Analysis.AnalysisTime),
		NumNTs:         page.Analysis.NumNTs,
		NumProds:       page.Analysis.NumProds,
	}
	for _, hr := range page.Hotspots {
		ps.Hotspots = append(ps.Hotspots, incr.HotspotSummary{
			File:          hr.File,
			Line:          hr.Line,
			Call:          hr.Call,
			VerdictRecord: policy.ToRecord(hr.Policy),
			Census:        hr.Policy.Census,
		})
	}
	return ps
}

// pageFromSummary rebuilds a replayable PageResult from a persisted
// summary. A summary stores no grammar, so the page has none (G is nil) and
// its hotspot roots are zero: phase 2 skips a replayed page, findings key on
// file/line/label (exactly as vcache replay relies on), and PackEntries
// turns a page without a grammar into unavailable entries, which fail
// closed.
func pageFromSummary(ps *incr.PageSummary) PageResult {
	ar := &analysis.Result{
		AnalysisTime: time.Duration(ps.AnalysisTimeNS),
		NumNTs:       ps.NumNTs,
		NumProds:     ps.NumProds,
	}
	hs := make([]HotspotResult, 0, len(ps.Hotspots))
	for _, h := range ps.Hotspots {
		pr := policy.FromRecord(&h.VerdictRecord)
		pr.Census = h.Census
		hot := analysis.Hotspot{File: h.File, Line: h.Line, Call: h.Call}
		ar.Hotspots = append(ar.Hotspots, hot)
		hs = append(hs, HotspotResult{Hotspot: hot, Policy: pr})
	}
	return PageResult{Entry: ps.Entry, Analysis: ar, Hotspots: hs}
}

// IncrStats counts one incremental run's reuse: how much of the application
// was served from session memos, the cross-run parse cache, and the
// persistent summary store instead of being recomputed.
type IncrStats struct {
	// FilesHashed is the snapshot size: every source file is rehashed each
	// run (hashing IS the incremental check). FilesReused / FilesParsed
	// split the parse-tree loads phase 1 performed between cache hits and
	// actual parses; a warm run that touched no PHP file parses zero files.
	FilesHashed int64
	FilesReused int64
	FilesParsed int64
	// PagesReplayed pages validated their dependency closure and replayed
	// their memoized outcome; PagesRecomputed ran phase 1 for real.
	PagesReplayed   int64
	PagesRecomputed int64
	// HotspotsReplayed verdicts were served by page replay without entering
	// phase 2; HotspotsRechecked went through the policy cascade (where the
	// verdict caches may still answer unchanged slices).
	HotspotsReplayed  int64
	HotspotsRechecked int64
	// Summary-store traffic for this run (all zero without a store).
	SummaryHits   int64
	SummaryMisses int64
	SummaryErrors int64
}

// PageReplayPct is the percentage of pages served by replay.
func (s *IncrStats) PageReplayPct() float64 {
	return pct(s.PagesReplayed, s.PagesReplayed+s.PagesRecomputed)
}

// HotspotReplayPct is the percentage of hotspot verdicts served by replay.
func (s *IncrStats) HotspotReplayPct() float64 {
	return pct(s.HotspotsReplayed, s.HotspotsReplayed+s.HotspotsRechecked)
}

// FileReusePct is the percentage of parse-tree loads served by the
// cross-run parse cache.
func (s *IncrStats) FileReusePct() float64 {
	return pct(s.FilesReused, s.FilesReused+s.FilesParsed)
}

func pct(part, total int64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(part) / float64(total)
}
