// Package policy implements phase 2 of the paper (§3.2): checking an
// annotated query grammar for SQL command injection vulnerabilities. For
// each labeled nonterminal X it runs the paper's cascade:
//
//  1. odd-unescaped-quote test — a string with an odd number of unescaped
//     quotes can never be syntactically confined (report);
//  2. string-literal-position test — replace X by the marker terminal,
//     check every occurrence sits inside a string literal, then test X's
//     own language for unescaped quotes (verify or report);
//  3. numeric-literal test — L(X) within numeric literals is safe;
//  4. attack-string test — X deriving a known-unconfinable fragment is
//     reported with that witness;
//  5. derivability (§3.2.2) — the remaining nonterminals are safe only if
//     the whole query grammar is derivable from the reference SQL grammar;
//     otherwise they are reported conservatively.
//
// No reports ⇒ no SQLCIVs at this hotspot (Theorem 3.4), relative to the
// modeled PHP subset and library specs.
package policy

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"sqlciv/internal/automata"
	"sqlciv/internal/budget"
	"sqlciv/internal/deriv"
	"sqlciv/internal/grammar"
	"sqlciv/internal/obs"
	"sqlciv/internal/rx"
	"sqlciv/internal/sqlgram"
	"sqlciv/internal/vcache"
)

// CacheVersion tags persistent verdict-cache entries with the identity of
// the policy logic that produced them. It MUST be bumped whenever anything
// that feeds a verdict changes: the cascade structure, a check DFA, the
// attack-fragment list, the reference SQL grammar, the derivability checker
// or its caps, or witness selection. A mismatched tag orphans old entries —
// they are ignored, never migrated.
const CacheVersion = "sqlciv-policy-v1"

// Check identifies which stage of the cascade produced a report.
type Check int

// Report kinds.
const (
	CheckUnconfinableQuotes Check = iota + 1
	CheckLiteralEscape
	CheckAttackString
	CheckNotDerivable
	// CheckAnalysisIncomplete is not a cascade stage: it marks a hotspot
	// whose check was cut short (budget exhausted, cancelled, or panicked)
	// and therefore could not be verified. Reported conservatively so
	// degradation is never a silent pass.
	CheckAnalysisIncomplete
)

func (c Check) String() string {
	switch c {
	case CheckUnconfinableQuotes:
		return "odd-unescaped-quotes"
	case CheckLiteralEscape:
		return "string-literal-escape"
	case CheckAttackString:
		return "attack-string"
	case CheckNotDerivable:
		return "not-derivable"
	case CheckAnalysisIncomplete:
		return "analysis-incomplete"
	}
	return "unknown"
}

// Verdict is the three-valued outcome of one hotspot check. The zero value
// is Vulnerable so a forgotten assignment errs on the reporting side.
type Verdict int

const (
	// VerdictVulnerable: the cascade completed and at least one labeled
	// nonterminal was reported.
	VerdictVulnerable Verdict = iota
	// VerdictVerified: the cascade completed with no reports — no SQLCIV at
	// this hotspot (Theorem 3.4).
	VerdictVerified
	// VerdictUnknown: the check was cut short by its resource budget,
	// cancellation, or a recovered panic. The hotspot is reported as
	// analysis-incomplete; it may or may not be vulnerable.
	VerdictUnknown
)

func (v Verdict) String() string {
	switch v {
	case VerdictVulnerable:
		return "vulnerable"
	case VerdictVerified:
		return "verified"
	case VerdictUnknown:
		return "unknown"
	}
	return "invalid"
}

// Report is one potential SQLCIV.
type Report struct {
	NT      grammar.Sym
	Label   grammar.Label
	Check   Check
	Witness string
	// Source names the untrusted origin when the analysis tracked one
	// (e.g. "_GET[userid]", "mysql_fetch_assoc").
	Source string
}

func (r Report) String() string {
	if r.Check == CheckAnalysisIncomplete {
		return fmt.Sprintf("analysis incomplete (%s) — hotspot not verified", r.Witness)
	}
	src := r.Source
	if src == "" {
		src = "untrusted data"
	}
	return fmt.Sprintf("[%s] %s fails %s, e.g. %q", r.Label, src, r.Check, r.Witness)
}

// Result summarizes one hotspot check.
type Result struct {
	Reports  []Report
	Verified bool // no labeled nonterminal survived unverified
	// Verdict is the three-valued outcome; Verified == (Verdict ==
	// VerdictVerified).
	Verdict Verdict
	// Degraded is set exactly when Verdict is VerdictUnknown: why the check
	// was cut short.
	Degraded *budget.Exceeded
	// Stack holds the recovered goroutine stack when Degraded.Reason is
	// ReasonPanic.
	Stack string
	// Stats
	LabeledNTs    int
	CheckTime     time.Duration
	BudgetSteps   int64 // abstract steps consumed (0 when unbudgeted)
	BudgetMemHigh int64 // memory high-water estimate in bytes
	// Slice compaction census: the extracted slice's |V| / |R| and the
	// compacted grammar the cascade fixpoints actually ran over. All zero
	// in marker-construction mode, which runs on the uncompacted slice.
	SliceNTs, SliceProds     int
	CompactNTs, CompactProds int
}

// Checker holds the policy automata and reference grammar. The automata and
// reference tables are read-only after New, so one Checker may serve
// concurrent CheckHotspot calls (the verdict cache is synchronized
// internally).
type Checker struct {
	sql   *sqlgram.SQL
	deriv *deriv.Checker

	// UseMarkerConstruction selects the paper's original check-2 mechanism
	// (replace the nonterminal with a marker terminal, intersect with a
	// context automaton) instead of the equivalent one-pass quote-parity
	// dataflow. The marker mode runs checks 1–4 as per-nonterminal
	// intersections over the uncompacted slice, so it is also the reference
	// the compacted cascade is differentially tested against; the dataflow
	// over the compacted slice is the default because it handles all
	// labeled nonterminals in one pass.
	UseMarkerConstruction bool

	// Memoize enables the fingerprint-keyed verdict cache: hotspots whose
	// reachable annotated sub-grammars are canonically equal (same shape,
	// labels, and source names up to nonterminal renaming) share one
	// verdict. Off by default so benchmarks that loop over one hotspot
	// measure the cascade, not the cache; core.AnalyzeApp turns it on.
	Memoize bool

	// Disk, when set, persists verdicts across runs, keyed by the
	// fingerprint of the compacted slice plus CacheVersion. Only complete
	// (non-degraded) verdicts are stored; entries become visible to later
	// runs when the owner calls Disk.Flush (core never flushes mid-run, so
	// cold results stay schedule-independent). Marker-construction mode
	// never compacts and so never consults it.
	Disk *vcache.Store

	verdicts    sync.Map // grammar.Fingerprint -> *Result
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	diskHits    atomic.Int64
	diskMisses  atomic.Int64
	checks      atomic.Int64

	oddQuotes  *automata.DFA
	unescQuote *automata.DFA
	evenCtx    *automata.DFA
	nonNumeric *automata.DFA
	attackDFAs []attackDFA
	// attackUnion accepts ∪ᵢ L(attackDFAs[i]); nil disables the check-4
	// prefilter (the per-pattern fixpoints run eagerly, as before).
	attackUnion *automata.DFA
}

// VerdictCacheStats returns the cumulative in-memory verdict-cache hit and
// miss counts for this checker.
func (c *Checker) VerdictCacheStats() (hits, misses int64) {
	return c.cacheHits.Load(), c.cacheMisses.Load()
}

// DiskCacheStats returns the cumulative persistent verdict-cache hit and
// miss counts for this checker (both zero when Disk is unset).
func (c *Checker) DiskCacheStats() (hits, misses int64) {
	return c.diskHits.Load(), c.diskMisses.Load()
}

// ChecksRun returns how many hotspot checks this checker has executed
// (cache hits included — every CheckSlice call counts one).
func (c *Checker) ChecksRun() int64 { return c.checks.Load() }

type attackDFA struct {
	name string
	dfa  *automata.DFA
}

var (
	buildOnce sync.Once
	prebuilt  struct {
		oddQuotes  *automata.DFA
		unescQuote *automata.DFA
		evenCtx    *automata.DFA
		nonNumeric *automata.DFA
		attacks    []attackDFA
		// attackUnion accepts the union of every attack pattern's
		// language — one relation fixpoint answers "no attack fragment
		// derivable" for the common case; nil if the union DFA outgrows
		// the relation representation.
		attackUnion *automata.DFA
	}
)

// buildPrebuilt constructs the shared check DFAs once per process (run via
// buildOnce by New and CheckAutomata).
func buildPrebuilt() {
	prebuilt.oddQuotes = buildQuoteParityDFA()
	prebuilt.unescQuote = buildUnescapedQuoteDFA()
	prebuilt.evenCtx = buildEvenContextDFA()
	re, err := rx.Parse(`^-?[0-9]+(\.[0-9]+)?$`, false)
	if err != nil {
		panic("policy: numeric pattern: " + err.Error())
	}
	prebuilt.nonNumeric = re.MatchDFA().Complement().Minimize()
	var frags *automata.NFA
	for _, frag := range []string{"--", "DROP", "UNION", ";", "/*", " OR ", " or 1=1"} {
		f := automata.FromString(frag)
		if frags == nil {
			frags = f
		} else {
			frags = automata.Union(frags, f)
		}
		n := automata.Concat(automata.Concat(automata.SigmaStar(), f), automata.SigmaStar())
		prebuilt.attacks = append(prebuilt.attacks, attackDFA{name: frag, dfa: n.Determinize().Minimize()})
	}
	u := automata.Concat(automata.Concat(automata.SigmaStar(), frags), automata.SigmaStar()).Determinize().Minimize()
	if u.NumStates() <= grammar.MaxRelStates {
		prebuilt.attackUnion = u
	}
}

// CheckAutomaton names one prebuilt policy check DFA.
type CheckAutomaton struct {
	Name string
	DFA  *automata.DFA
}

// CheckAutomata returns the prebuilt check DFAs by name. Tooling uses it to
// ratchet the byte-class footprint of the cascade (`make bench-classes`): a
// check DFA growing past a couple dozen classes means some construction
// started distinguishing bytes it should not.
func CheckAutomata() []CheckAutomaton {
	buildOnce.Do(buildPrebuilt)
	out := []CheckAutomaton{
		{"odd-quotes", prebuilt.oddQuotes},
		{"unescaped-quote", prebuilt.unescQuote},
		{"even-context", prebuilt.evenCtx},
		{"non-numeric", prebuilt.nonNumeric},
	}
	for _, atk := range prebuilt.attacks {
		out = append(out, CheckAutomaton{"attack:" + atk.name, atk.dfa})
	}
	if prebuilt.attackUnion != nil {
		out = append(out, CheckAutomaton{"attack-union", prebuilt.attackUnion})
	}
	return out
}

// New returns a Checker against the shared reference SQL grammar.
func New() *Checker {
	buildOnce.Do(buildPrebuilt)
	sql := sqlgram.Get()
	return &Checker{
		sql:         sql,
		deriv:       deriv.New(sql.G),
		oddQuotes:   prebuilt.oddQuotes,
		unescQuote:  prebuilt.unescQuote,
		evenCtx:     prebuilt.evenCtx,
		nonNumeric:  prebuilt.nonNumeric,
		attackDFAs:  prebuilt.attacks,
		attackUnion: prebuilt.attackUnion,
	}
}

// buildQuoteParityDFA returns a DFA accepting byte strings whose number of
// unescaped single quotes is odd. State parity*2+esc records the quote
// parity so far and whether the previous byte was an escaping backslash;
// the start state is 0. The marker symbol is treated as an ordinary
// non-quote character.
func buildQuoteParityDFA() *automata.DFA {
	return automata.FromFunc(4, 0,
		func(s int) bool { return s/2 == 1 },
		func(s, sym int) int {
			parity, esc := s/2, s%2
			switch {
			case esc == 1:
				return parity * 2 // escaped char: consume, clear esc
			case sym == '\\':
				return parity*2 + 1
			case sym == '\'':
				return (1 - parity) * 2
			}
			return s
		})
}

// buildUnescapedQuoteDFA accepts strings containing at least one unescaped
// single quote.
func buildUnescapedQuoteDFA() *automata.DFA {
	const norm, esc, seen = 0, 1, 2
	return automata.FromFunc(3, norm,
		func(s int) bool { return s == seen },
		func(s, sym int) int {
			switch {
			case s == esc:
				return norm
			case s == seen:
				return seen
			case sym == '\\':
				return esc
			case sym == '\'':
				return seen
			}
			return norm
		})
}

// buildEvenContextDFA accepts strings (over bytes + marker) in which some
// marker occurrence has an even number of unescaped quotes before it —
// i.e., the marker is NOT in string-literal position there. The complement
// of check 2's "only inside literals" condition. States 0-3 are the
// parity*2+esc states of buildQuoteParityDFA; state 4 is the accepting
// sink.
func buildEvenContextDFA() *automata.DFA {
	const bad = 4
	return automata.FromFunc(5, 0,
		func(s int) bool { return s == bad },
		func(s, sym int) int {
			parity, esc := s/2, s%2
			switch {
			case s == bad:
				return bad
			case sym == automata.Marker:
				if parity == 0 {
					return bad
				}
				return parity * 2 // marker: placeholder, no effect
			case esc == 1:
				return parity * 2
			case sym == '\\':
				return parity*2 + 1
			case sym == '\'':
				return (1 - parity) * 2
			}
			return s
		})
}

// CheckHotspot checks the query grammar rooted at root in g and returns the
// reports for its labeled nonterminals.
//
// With Memoize set, results are cached under the sub-grammar's canonical
// fingerprint; a hit returns a Result sharing the cached Reports slice
// (callers must treat it as read-only) with only CheckTime fresh.
func (c *Checker) CheckHotspot(g *grammar.Grammar, root grammar.Sym) *Result {
	return c.CheckHotspotT(g, root, nil, nil)
}

// DegradedResult builds the VerdictUnknown Result for a recovered panic
// value r (a budget sentinel or a genuine panic) observed under budget b.
// It must be called from inside the deferred recovery so a panic's stack is
// still live. The Result carries one analysis-incomplete Report, so
// report-driven consumers see the degradation without checking Verdict.
func DegradedResult(r any, b *budget.Budget) *Result {
	exc := budget.AsExceeded(r)
	res := &Result{
		Verdict:       VerdictUnknown,
		Degraded:      exc,
		BudgetSteps:   b.Steps(),
		BudgetMemHigh: b.MemHigh(),
	}
	if exc.Reason == budget.ReasonPanic {
		res.Stack = string(debug.Stack())
	}
	res.Reports = append(res.Reports, Report{Check: CheckAnalysisIncomplete, Witness: exc.Error()})
	return res
}

// CheckHotspotT is CheckHotspot metered by b and observed by sp. Budget
// trips and panics anywhere in the cascade are recovered here and degrade
// the hotspot to a VerdictUnknown Result — reported, never silently passed —
// so one pathological or poisoned hotspot cannot take down the run.
// Degraded results are not cached: they depend on timing and remaining
// budget, and a retry with a larger budget could succeed. A nil b is
// unlimited.
//
// sp is normally the hotspot span the core driver opened: each cascade
// stage and the derivability session get child spans carrying their
// fixpoint counters, and the verdict-cache outcome lands on sp itself (attr
// "verdict-cache", counters "verdict.cache.hits"/"verdict.cache.misses"). A
// nil sp traces nothing.
//
// The check itself is PrepareSlice followed by CheckSlice; callers that want
// to drive the two stages separately (the core analyzer does, so slicing is
// visible in its per-hotspot pipeline) call them directly.
func (c *Checker) CheckHotspotT(g *grammar.Grammar, root grammar.Sym, b *budget.Budget, sp *obs.Span) (res *Result) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			res = DegradedResult(r, b)
			res.CheckTime = time.Since(start)
		}
	}()
	return c.checkSlice(c.PrepareSlice(g, root, b, sp), b, sp)
}

// Slice is the prepared state of one hotspot check: the extracted original
// slice, its compacted form, the labeled nonterminals to examine in
// canonical order, and any cache short-circuit PrepareSlice discovered. A
// Slice is consumed by exactly one CheckSlice call.
type Slice struct {
	start   time.Time
	hit     *Result          // memoized or persisted verdict; skip the cascade
	scratch *grammar.Grammar // extracted original slice; nil on a disk hit
	sroot   grammar.Sym
	vl      []grammar.Sym      // labeled productive NTs (scratch syms, canonical order)
	cg      *grammar.Compacted // nil in marker-construction mode
	cstats  grammar.CompactStats
	fp      grammar.Fingerprint // original-slice fingerprint (memo key)
	haveFP  bool
	cfp     grammar.Fingerprint // compacted-slice fingerprint (disk key)
	haveCFP bool
}

// PrepareSlice compacts, canonicalizes, and extracts the query-grammar
// slice rooted at root, consulting the persistent and in-memory verdict
// caches along the way. The persistent cache is keyed by the compacted
// slice's fingerprint, which unifies structurally different originals with
// the same canonical compact form; it is probed first, straight off the
// compacted form of the page grammar, so a disk hit never extracts or
// canonicalizes the original slice at all. The in-memory memoizer is keyed
// by the original slice's fingerprint — isomorphic originals are guaranteed
// bit-identical results.
//
// Budget trips and panics propagate to the caller's recovery (CheckHotspotT
// or the core driver's per-hotspot recovery).
func (c *Checker) PrepareSlice(g *grammar.Grammar, root grammar.Sym, b *budget.Budget, sp *obs.Span) *Slice {
	s := &Slice{start: time.Now()}
	b.Check()

	// memoLookup canonicalizes g from root for the in-memory memoizer key,
	// keeping the canonical symbol order for reuse. On the compacted path
	// it runs only after the persistent cache misses: a warm run answers
	// from the (cheaper) compacted fingerprint without ever canonicalizing
	// the full original slice.
	var orderG []grammar.Sym
	memoLookup := func() bool {
		if !c.Memoize {
			return false
		}
		s.fp, orderG = g.FingerprintOrder(root)
		s.haveFP = true
		if v, ok := c.verdicts.Load(s.fp); ok {
			c.cacheHits.Add(1)
			sp.SetAttr("verdict-cache", "hit")
			sp.Count("verdict.cache.hits", 1)
			s.hit = v.(*Result)
			return true
		}
		c.cacheMisses.Add(1)
		sp.SetAttr("verdict-cache", "miss")
		sp.Count("verdict.cache.misses", 1)
		return false
	}
	// collectVL gathers labeled nonterminals in canonical (BFS-from-root)
	// order: α-equivalent grammars then produce Results with identically
	// ordered Reports, so a cached verdict is indistinguishable from a
	// recomputed one no matter which hotspot filled the cache. The memoized
	// path already canonicalized g for the fingerprint; reuse that order
	// through the extraction remap instead of canonicalizing the slice
	// again.
	collectVL := func(remap map[grammar.Sym]grammar.Sym) []grammar.Sym {
		var vlAll []grammar.Sym
		if orderG != nil {
			for _, nt := range orderG {
				if g.LabelOf(nt) != 0 {
					vlAll = append(vlAll, remap[nt])
				}
			}
		} else {
			for _, nt := range s.scratch.CanonicalOrder(s.sroot) {
				if s.scratch.LabelOf(nt) != 0 {
					vlAll = append(vlAll, nt)
				}
			}
		}
		return vlAll
	}

	if c.UseMarkerConstruction {
		if memoLookup() {
			return s
		}
		scratch, remap := g.Extract(root)
		s.scratch, s.sroot = scratch, remap[root]
		// Uncompacted path: filter unproductive labeled NTs by emptiness.
		minLens := scratch.MinLens()
		for _, nt := range collectVL(remap) {
			if minLens[int(nt)-grammar.NumTerminals] >= 0 {
				s.vl = append(s.vl, nt)
			}
		}
		return s
	}

	// Compact straight off the page grammar: CompactSlice only touches the
	// sub-grammar reachable from root, and its output is numbering-invariant,
	// so the compacted form — and with it the persistent-cache key — is the
	// same whether or not the slice was extracted first. Probing the disk
	// cache before extraction means a warm run never materializes the
	// original slice at all.
	csp := sp.Child("compact", "slice")
	cg, cstats := grammar.CompactSlice(g, root, b)
	csp.Count("compact.nts.in", int64(cstats.NTsIn))
	csp.Count("compact.prods.in", int64(cstats.ProdsIn))
	csp.Count("compact.nts.out", int64(cstats.NTsOut))
	csp.Count("compact.prods.out", int64(cstats.ProdsOut))
	csp.Count("compact.inlined", int64(cstats.InlinedNTs))
	csp.End()
	s.cg, s.cstats = cg, cstats

	if c.Disk != nil {
		s.cfp = cg.G.Fingerprint(cg.Top)
		s.haveCFP = true
		if ent, ok := c.Disk.Get(s.cfp, CacheVersion); ok {
			c.diskHits.Add(1)
			sp.SetAttr("disk-cache", "hit")
			sp.Count("verdict.cache.disk.hits", 1)
			s.hit = resultFromEntry(ent, s)
			return s
		}
		c.diskMisses.Add(1)
		sp.SetAttr("disk-cache", "miss")
		sp.Count("verdict.cache.disk.misses", 1)
	}
	scratch, remap := g.Extract(root)
	s.scratch, s.sroot = scratch, remap[root]
	// The cascade and the vl filter below address compacted nonterminals
	// from scratch symbols, so rebase Fwd (keyed by page symbols above) into
	// the extraction's numbering.
	fwd := make(map[grammar.Sym]grammar.Sym, len(cg.Fwd))
	for k, v := range cg.Fwd {
		fwd[remap[k]] = v
	}
	cg.Fwd = fwd
	if memoLookup() {
		return s
	}
	// Compaction keeps exactly the labeled NTs with nonempty languages, so
	// survivorship in Fwd is the productivity filter.
	for _, nt := range collectVL(remap) {
		if _, ok := cg.Fwd[nt]; ok {
			s.vl = append(s.vl, nt)
		}
	}
	return s
}

// CheckSlice runs the policy cascade over a prepared slice. Budget trips
// and panics inside the cascade degrade the hotspot to a VerdictUnknown
// Result — reported, never silently passed — and degraded results are never
// cached (they depend on timing and remaining budget; a retry with a larger
// budget could succeed).
func (c *Checker) CheckSlice(s *Slice, b *budget.Budget, sp *obs.Span) (res *Result) {
	defer func() {
		if r := recover(); r != nil {
			res = DegradedResult(r, b)
			res.CheckTime = time.Since(s.start)
		}
	}()
	return c.checkSlice(s, b, sp)
}

// checkSlice is CheckSlice without the recovery wrapper (CheckHotspotT
// supplies its own, covering PrepareSlice too).
func (c *Checker) checkSlice(s *Slice, b *budget.Budget, sp *obs.Span) *Result {
	c.checks.Add(1)
	if s.hit != nil {
		out := *s.hit
		if s.cg != nil {
			// Disk hit: the slice census was computed locally this run.
			setSliceStats(&out, s)
		}
		out.CheckTime = time.Since(s.start)
		return &out
	}
	b.Check()
	sp.Count("policy.labeled-nts", int64(len(s.vl)))
	res := &Result{LabeledNTs: len(s.vl)}
	setSliceStats(res, s)
	var undecided []grammar.Sym
	if c.UseMarkerConstruction {
		undecided = c.cascadeReference(s.scratch, s.sroot, s.vl, res, b, sp)
	} else {
		undecided = c.cascadeFast(s, res, b, sp)
	}

	// Check 5: derivability of the whole query grammar covers the rest. It
	// runs on the original slice: derivability is checked structurally with
	// heuristic caps, so unlike the relation fixpoints it is not invariant
	// under compaction.
	if len(undecided) > 0 {
		c5 := sp.Child("check", "5:derivability", obs.Attr{Key: "undecided", Val: fmt.Sprint(len(undecided))})
		_, ok := c.deriv.DerivableT(s.scratch, s.sroot, []grammar.Sym{c.sql.Start}, b, c5)
		c5.SetAttr("derivable", fmt.Sprint(ok))
		c5.End()
		if !ok {
			for _, x := range undecided {
				w, _ := s.scratch.WitnessString(x)
				res.Reports = append(res.Reports, Report{NT: x, Label: s.scratch.LabelOf(x), Check: CheckNotDerivable, Witness: w, Source: s.scratch.RawName(x)})
			}
		}
	}

	if len(res.Reports) == 0 {
		res.Verified = true
		res.Verdict = VerdictVerified
	} else {
		res.Verdict = VerdictVulnerable
	}
	res.CheckTime = time.Since(s.start)
	res.BudgetSteps = b.Steps()
	res.BudgetMemHigh = b.MemHigh()
	if c.Memoize {
		// First writer wins; a concurrent loser computed an identical
		// Result (canonical report order), so dropping it is harmless.
		c.verdicts.LoadOrStore(s.fp, res)
	}
	if c.Disk != nil && s.haveCFP {
		c.Disk.Put(s.cfp, CacheVersion, entryFromResult(s, res))
	}
	return res
}

// setSliceStats copies the compaction census onto a Result.
func setSliceStats(res *Result, s *Slice) {
	res.SliceNTs = s.cstats.NTsIn
	res.SliceProds = s.cstats.ProdsIn
	res.CompactNTs = s.cstats.NTsOut
	res.CompactProds = s.cstats.ProdsOut
}

// entryFromResult serializes a computed verdict for the persistent cache.
func entryFromResult(s *Slice, res *Result) *vcache.Entry {
	e := &vcache.Entry{Verdict: res.Verdict.String(), LabeledNTs: res.LabeledNTs}
	for _, r := range res.Reports {
		e.Reports = append(e.Reports, vcache.Report{
			NTName:  s.scratch.RawName(r.NT),
			Label:   uint8(r.Label),
			Check:   int(r.Check),
			Witness: r.Witness,
			Source:  r.Source,
		})
	}
	return e
}

// resultFromEntry rebuilds a Result from a persisted verdict. Report.NT is
// left zero — the nonterminal id was local to the run that filled the cache
// and no consumer reads it (core keys findings on file/line/label); the
// human-readable NTName travels in Source.
func resultFromEntry(e *vcache.Entry, s *Slice) *Result {
	res := &Result{LabeledNTs: e.LabeledNTs}
	for _, r := range e.Reports {
		res.Reports = append(res.Reports, Report{
			Label:   grammar.Label(r.Label),
			Check:   Check(r.Check),
			Witness: r.Witness,
			Source:  r.Source,
		})
	}
	if len(res.Reports) == 0 {
		res.Verified = true
		res.Verdict = VerdictVerified
	} else {
		res.Verdict = VerdictVulnerable
	}
	setSliceStats(res, s)
	return res
}

// cascadeReference runs checks 1–4 with the paper's original constructions
// over the uncompacted slice: per-nonterminal regular intersections and the
// marker-terminal context grammar. It anchors Ablation E and is the
// reference the compacted fast path is differentially tested against. One
// child span collects the per-nonterminal intersection traffic.
func (c *Checker) cascadeReference(scratch *grammar.Grammar, sroot grammar.Sym, vl []grammar.Sym, res *Result, b *budget.Budget, hsp *obs.Span) []grammar.Sym {
	sp := hsp.Child("check", "1-4:marker-reference")
	defer sp.End()
	var undecided []grammar.Sym
	for _, x := range vl {
		label := scratch.LabelOf(x)

		// Check 1: odd number of unescaped quotes.
		if w, ok := grammar.IntersectWitnessT(scratch, x, c.oddQuotes, b, sp); ok {
			res.Reports = append(res.Reports, Report{NT: x, Label: label, Check: CheckUnconfinableQuotes, Witness: w, Source: scratch.RawName(x)})
			continue
		}

		// Check 2: string-literal position via the marker construction.
		rt := scratch.ReplaceWithMarker(sroot, x)
		if !markerAppears(rt, b, sp) {
			continue // X never reaches the query text
		}
		if grammar.IntersectEmptyT(rt, rt.Start(), c.evenCtx, b, sp) {
			if w, ok := grammar.IntersectWitnessT(scratch, x, c.unescQuote, b, sp); ok {
				res.Reports = append(res.Reports, Report{NT: x, Label: label, Check: CheckLiteralEscape, Witness: w, Source: scratch.RawName(x)})
			}
			continue
		}

		// Check 3: numeric literals only.
		if grammar.IntersectEmptyT(scratch, x, c.nonNumeric, b, sp) {
			continue
		}

		// Check 4: known-unconfinable fragments.
		attacked := false
		for _, atk := range c.attackDFAs {
			if w, ok := grammar.IntersectWitnessT(scratch, x, atk.dfa, b, sp); ok {
				res.Reports = append(res.Reports, Report{NT: x, Label: label, Check: CheckAttackString, Witness: w, Source: scratch.RawName(x)})
				attacked = true
				break
			}
		}
		if attacked {
			continue
		}
		undecided = append(undecided, x)
	}
	return undecided
}

// cascadeFast runs checks 1–4 using one relation fixpoint per check DFA
// (rels.go) and the one-pass quote-parity context analysis (context.go),
// extracting witnesses only for reported nonterminals. Each check's
// fixpoint gets its own child span under hsp; witness extraction for a
// reported nonterminal is traced as a "witness" span naming the check.
//
// Every fixpoint runs over the slice's compacted grammar: the relations and
// contexts are language-level properties, exactly preserved by compaction,
// and the compacted grammar is typically an order of magnitude smaller.
// Witness strings are still extracted from the original slice — the witness
// tie-break depends on derivation-tree structure, which compaction changes —
// so reports are byte-for-byte the ones the uncompacted marker-construction
// reference produces.
func (c *Checker) cascadeFast(s *Slice, res *Result, b *budget.Budget, hsp *obs.Span) []grammar.Sym {
	scratch := s.scratch
	relG, relRoot := s.cg.G, s.cg.Root
	minLens := relG.MinLens()
	// One production snapshot feeds every fixpoint: the cascade runs one
	// relation computation per check DFA (3 + one per attack pattern) over
	// the same grammar.
	plan := grammar.NewRelPlan(relG, minLens, b)
	c1 := hsp.Child("check", "1:odd-unescaped-quotes")
	oddRel := plan.RelsT(c.oddQuotes, b, c1)
	c1.End()
	c2 := hsp.Child("check", "2:string-literal-position")
	ctxInfo := c.computeContexts(relG, relRoot, oddRel, minLens, b, c2)
	unescRel := plan.RelsT(c.unescQuote, b, c2)
	c2.End()
	c3 := hsp.Child("check", "3:numeric-literal")
	numRel := plan.RelsT(c.nonNumeric, b, c3)
	c3.End()
	c4 := hsp.Child("check", "4:attack-string")
	defer c4.End()
	// One union-DFA fixpoint prefilters check 4: most nonterminals derive
	// no attack fragment at all, and the per-pattern fixpoints — needed
	// only to attribute a match to its first pattern — run lazily.
	var unionRel [][]uint32
	if c.attackUnion != nil {
		unionRel = plan.RelsT(c.attackUnion, b, c4)
	}
	attackRels := make([][][]uint32, len(c.attackDFAs))
	attackDone := make([]bool, len(c.attackDFAs))
	attackRel := func(i int) [][]uint32 {
		if !attackDone[i] {
			attackDone[i] = true
			attackRels[i] = plan.RelsT(c.attackDFAs[i].dfa, b, c4)
		}
		return attackRels[i]
	}
	// RelNonempty falls back to an intersection when a DFA is too large for
	// the relation representation (does not happen with the built-ins).
	nonempty := func(rel [][]uint32, d *automata.DFA, cx grammar.Sym) bool {
		return grammar.RelNonemptyB(rel, d, relG, cx, b)
	}
	witness := func(check Check, x grammar.Sym, d *automata.DFA) string {
		wsp := hsp.Child("witness", check.String(), obs.Attr{Key: "nt", Val: scratch.Name(x)})
		w, _ := grammar.IntersectWitnessT(scratch, x, d, b, wsp)
		wsp.End()
		return w
	}
	var undecided []grammar.Sym
	for _, x := range s.vl {
		label := scratch.LabelOf(x)
		cx := s.cg.Fwd[x]

		// Check 1: odd number of unescaped quotes.
		if nonempty(oddRel, c.oddQuotes, cx) {
			w := witness(CheckUnconfinableQuotes, x, c.oddQuotes)
			res.Reports = append(res.Reports, Report{NT: x, Label: label, Check: CheckUnconfinableQuotes, Witness: w, Source: scratch.RawName(x)})
			continue
		}

		// Check 2: string-literal position.
		occurs, literalOnly := ctxInfo.literalOnly(cx)
		if !occurs {
			continue
		}
		if literalOnly {
			if nonempty(unescRel, c.unescQuote, cx) {
				w := witness(CheckLiteralEscape, x, c.unescQuote)
				res.Reports = append(res.Reports, Report{NT: x, Label: label, Check: CheckLiteralEscape, Witness: w, Source: scratch.RawName(x)})
			}
			continue
		}

		// Check 3: numeric literals only.
		if !nonempty(numRel, c.nonNumeric, cx) {
			continue
		}

		// Check 4: known-unconfinable fragments.
		attacked := false
		if c.attackUnion == nil || nonempty(unionRel, c.attackUnion, cx) {
			for i, atk := range c.attackDFAs {
				if nonempty(attackRel(i), atk.dfa, cx) {
					w := witness(CheckAttackString, x, atk.dfa)
					res.Reports = append(res.Reports, Report{NT: x, Label: label, Check: CheckAttackString, Witness: w, Source: scratch.RawName(x)})
					attacked = true
					break
				}
			}
		}
		if attacked {
			continue
		}
		undecided = append(undecided, x)
	}
	return undecided
}

// markerAppears reports whether the marker terminal occurs in some string
// of the grammar's language (i.e., X is live in the query).
func markerAppears(g *grammar.Grammar, b *budget.Budget, sp *obs.Span) bool {
	// A marker is live iff some derivable string contains it: intersect
	// with (anything)* marker (anything)*, where "anything" includes the
	// marker itself (X may occur several times in one query).
	n := automata.NewNFA()
	acc := n.AddState()
	n.SetAccept(acc, true)
	for sym := 0; sym < automata.AlphabetSize; sym++ {
		n.AddEdge(n.Start(), sym, n.Start())
		n.AddEdge(acc, sym, acc)
	}
	n.AddEdge(n.Start(), automata.Marker, acc)
	return !grammar.IntersectEmptyT(g, g.Start(), n.Determinize(), b, sp)
}
