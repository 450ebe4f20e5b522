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
// or its caps, or witness selection. An entry under another tag is a miss,
// never migrated: the run that recomputes its verdict rewrites it under this
// tag.
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
	// LabeledNTs is the number of labeled nonterminals the cascade examined.
	LabeledNTs int
	Census
	// Memo and Disk record what the in-memory verdict memo and the
	// persistent verdict cache answered for this check. A tier that was not
	// consulted reads NotProbed: the memo after a disk hit, the disk without
	// a store or in marker mode. A run sums them over its own hotspots.
	Memo, Disk Probe
}

// Census is one hotspot check's cost and slice census. Page summaries
// persist it with each hotspot (the JSON keys are their schema), so a
// replayed page reports the census of the run that checked it.
type Census struct {
	CheckTime time.Duration `json:"check_time_ns"`
	// The |V| / |R| of the slice and of the compacted grammar the cascade
	// fixpoints ran over; a verdict-cache hit carries the census of the
	// check that computed it. All zero in marker-construction mode, which
	// runs on the uncompacted slice.
	vcache.SliceCensus
	// BudgetSteps is the abstract steps this check consumed (0 when
	// unbudgeted), a cache hit's included; BudgetMemHigh its memory
	// high-water estimate in bytes.
	BudgetSteps   int64 `json:"budget_steps,omitempty"`
	BudgetMemHigh int64 `json:"budget_mem_high,omitempty"`
}

// Probe is what one verdict-cache tier answered for one hotspot check.
type Probe uint8

const (
	NotProbed Probe = iota
	ProbeHit
	ProbeMiss
)

// Checker runs the cascade against the shared phase-2 tables: the check
// automata and the reference SQL grammar. A Checker acquires the tables on
// the first hotspot it actually runs the cascade for, never in New, so a
// run whose hotspots are all replayed or answered by a verdict cache never
// builds them. The tables are read-only once built, so one Checker may
// serve concurrent CheckHotspot calls (the memo is synchronized
// internally).
//
// Both verdict tiers, the Checker's memo and its Disk, are keyed by the
// slice key (grammar.SliceKey): hotspots whose reachable annotated
// sub-grammars are identical up to nonterminal numbering share one entry,
// the complete Result a cascade computed for that slice, census included.
// A hit in either tier therefore returns what a cold check of the slice
// computes, and costs one pass over the slice plus a lookup. A caller that
// needs the cascade to run on each call, such as a differential test or a
// benchmark of the cascade, uses a fresh Checker per call; New builds
// nothing. Set UseMarkerConstruction and Disk before the first check: the
// memo keeps what that configuration computed.
type Checker struct {
	// UseMarkerConstruction selects the paper's original check-2 mechanism
	// (replace the nonterminal with a marker terminal, intersect with a
	// context automaton) instead of the equivalent one-pass quote-parity
	// dataflow. The marker mode runs checks 1–4 as per-nonterminal
	// intersections over the uncompacted slice, so it is also the reference
	// the compacted cascade is differentially tested against; the dataflow
	// over the compacted slice is the default because it handles all
	// labeled nonterminals in one pass.
	UseMarkerConstruction bool

	// Disk, when set, persists verdicts and slice censuses across runs,
	// keyed by the slice key plus CacheVersion. Only complete (non-degraded)
	// verdicts are stored; entries become visible to later runs when the
	// owner calls Disk.Flush (core never flushes mid-run, so cold results
	// stay schedule-independent). Marker-construction mode, whose census
	// differs, never consults it.
	Disk *vcache.Store

	memo sync.Map // slice key (grammar.SliceKey) -> *Result, set by the first cascade to complete

	tabOnce sync.Once
	tab     *tables // set by tabOnce; read it through tables
}

type attackDFA struct {
	name string
	dfa  *automata.DFA
}

// tables are the phase-2 tables every Checker shares: the check DFAs and
// the reference SQL grammar with its derivability checker.
type tables struct {
	sql   *sqlgram.SQL
	deriv *deriv.Checker

	oddQuotes  *automata.DFA
	unescQuote *automata.DFA
	evenCtx    *automata.DFA
	nonNumeric *automata.DFA
	attacks    []attackDFA
	// attackUnion accepts the union of every attack pattern's language —
	// one relation fixpoint answers "no attack fragment derivable" for the
	// common case; nil if the union DFA outgrows the relation
	// representation, which disables the check-4 prefilter (the
	// per-pattern fixpoints then run eagerly).
	attackUnion *automata.DFA
}

// sharedTables builds the tables once per process, on first use. The build
// probes no budget: it is the same work whichever hotspot triggers it.
var sharedTables = sync.OnceValue(buildTables)

func buildTables() *tables {
	sql := sqlgram.Get()
	t := &tables{
		sql:        sql,
		deriv:      deriv.New(sql.Rec),
		oddQuotes:  buildQuoteParityDFA(),
		unescQuote: buildUnescapedQuoteDFA(),
		evenCtx:    buildEvenContextDFA(),
	}
	re, err := rx.Parse(`^-?[0-9]+(\.[0-9]+)?$`, false)
	if err != nil {
		panic("policy: numeric pattern: " + err.Error())
	}
	m, _ := re.MatchDFA() // a few states, far under the cap
	t.nonNumeric = m.Complement().Minimize()
	var frags *automata.NFA
	for _, frag := range []string{"--", "DROP", "UNION", ";", "/*", " OR ", " or 1=1"} {
		f := automata.FromString(frag)
		if frags == nil {
			frags = f
		} else {
			frags = automata.Union(frags, f)
		}
		n := automata.Concat(automata.Concat(automata.SigmaStar(), f), automata.SigmaStar())
		t.attacks = append(t.attacks, attackDFA{name: frag, dfa: n.Determinize().Minimize()})
	}
	u := automata.Concat(automata.Concat(automata.SigmaStar(), frags), automata.SigmaStar()).Determinize().Minimize()
	if u.NumStates() <= grammar.MaxRelStates {
		t.attackUnion = u
	}
	return t
}

// tables returns the phase-2 tables. The checker's first call acquires them
// under a "policy"/"tables" child of sp, the span of the hotspot that
// needed them, so a trace shows the one-time build on its own instead of
// inside that hotspot's checks; concurrent first calls wait for it.
func (c *Checker) tables(sp *obs.Span) *tables {
	c.tabOnce.Do(func() {
		tsp := sp.Child("policy", "tables")
		c.tab = sharedTables()
		tsp.End()
	})
	return c.tab
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
	t := sharedTables()
	out := []CheckAutomaton{
		{"odd-quotes", t.oddQuotes},
		{"unescaped-quote", t.unescQuote},
		{"even-context", t.evenCtx},
		{"non-numeric", t.nonNumeric},
	}
	for _, atk := range t.attacks {
		out = append(out, CheckAutomaton{"attack:" + atk.name, atk.dfa})
	}
	if t.attackUnion != nil {
		out = append(out, CheckAutomaton{"attack-union", t.attackUnion})
	}
	return out
}

// New returns a Checker against the shared reference SQL grammar. It builds
// nothing: the tables come on the first cascade the checker runs.
func New() *Checker { return &Checker{} }

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
// Results are memoized and persisted under the sub-grammar's slice key; a
// hit returns a Result sharing the cached Reports slice (callers must treat
// it as read-only) with only CheckTime, the budget use and the probes its
// own.
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
		Verdict:  VerdictUnknown,
		Degraded: exc,
		Census:   Census{BudgetSteps: b.Steps(), BudgetMemHigh: b.MemHigh()},
	}
	if exc.Reason == budget.ReasonPanic {
		res.Stack = string(debug.Stack())
	}
	res.Reports = append(res.Reports, Report{Check: CheckAnalysisIncomplete, Witness: exc.Error()})
	return res
}

// CheckHotspotT is CheckHotspot metered by b and observed by sp. Budget
// trips and panics anywhere in the check are recovered here and degrade the
// hotspot to a VerdictUnknown Result — reported, never silently passed — so
// one pathological or poisoned hotspot cannot take down the run. A degraded
// Result keeps the probes its check made before the trip. Degraded results
// are not cached: they depend on timing and remaining budget, and a retry
// with a larger budget could succeed. A nil b is unlimited.
//
// sp is normally the hotspot span the core driver opened: slice compaction,
// each cascade stage and the derivability session get child spans carrying
// their fixpoint counters, and the verdict-cache outcomes land on sp itself
// (attrs "verdict-cache" and "disk-cache", counters
// "verdict.cache.hits"/"verdict.cache.misses" and
// "verdict.cache.disk.hits"/"verdict.cache.disk.misses"). A nil sp traces
// nothing.
func (c *Checker) CheckHotspotT(g *grammar.Grammar, root grammar.Sym, b *budget.Budget, sp *obs.Span) (res *Result) {
	s := &slice{start: time.Now()}
	defer func() {
		if r := recover(); r != nil {
			res = DegradedResult(r, b)
			res.CheckTime = time.Since(s.start)
			res.Memo, res.Disk = s.memo, s.disk
		}
	}()
	c.prepare(s, g, root, b, sp)
	return c.check(s, b, sp)
}

// slice is the prepared state of one hotspot check: the slice key, what
// the verdict caches answered under it and any hit, and on a miss the
// extracted original slice, its compacted form, its census and the labeled
// nonterminals to examine in canonical order.
type slice struct {
	start      time.Time
	key        grammar.Fingerprint // slice key: both verdict tiers' key
	memo, disk Probe
	hit        *Result          // memoized or persisted verdict; skip the cascade
	scratch    *grammar.Grammar // extracted original slice; nil on a cache hit
	sroot      grammar.Sym
	vl         []grammar.Sym      // labeled productive NTs (scratch syms, canonical order)
	cg         *grammar.Compacted // nil in marker-construction mode and on a cache hit
	census     vcache.SliceCensus // zero in marker-construction mode and on a cache hit
}

// prepare keys the query-grammar slice rooted at root, consults the verdict
// caches under that key, and only when both miss extracts, orders and
// compacts the slice into s. The persistent cache is probed first; a disk
// hit leaves the memo unprobed. The memo answers only verdicts a cascade of
// this checker computed. Either hit costs the key's one pass over the slice
// and no extraction, canonicalization or compaction.
func (c *Checker) prepare(s *slice, g *grammar.Grammar, root grammar.Sym, b *budget.Budget, sp *obs.Span) {
	b.Check()
	s.key = g.SliceKey(root, b)
	if c.Disk != nil && !c.UseMarkerConstruction {
		if ent, ok := c.Disk.Get(s.key, CacheVersion); ok {
			s.disk = ProbeHit
			sp.SetAttr("disk-cache", "hit")
			sp.Count("verdict.cache.disk.hits", 1)
			s.hit = FromRecord(&ent.VerdictRecord)
			s.hit.SliceCensus = ent.SliceCensus
			return
		}
		s.disk = ProbeMiss
		sp.SetAttr("disk-cache", "miss")
		sp.Count("verdict.cache.disk.misses", 1)
	}
	if res, ok := c.memo.Load(s.key); ok {
		s.memo = ProbeHit
		sp.SetAttr("verdict-cache", "hit")
		sp.Count("verdict.cache.hits", 1)
		s.hit = res.(*Result)
		return
	}
	s.memo = ProbeMiss
	sp.SetAttr("verdict-cache", "miss")
	sp.Count("verdict.cache.misses", 1)

	scratch, remap := g.Extract(root)
	s.scratch, s.sroot = scratch, remap[root]
	// Labeled nonterminals are examined in canonical (BFS-from-root) order:
	// slices that share a key then produce Results with identically ordered
	// Reports, so a memoized verdict is indistinguishable from a recomputed
	// one no matter which hotspot filled the memo.
	var labeled []grammar.Sym
	for _, nt := range g.CanonicalOrder(root) {
		if g.LabelOf(nt) != 0 {
			labeled = append(labeled, remap[nt])
		}
	}
	if c.UseMarkerConstruction {
		// Uncompacted path: filter unproductive labeled NTs by emptiness.
		minLens := scratch.MinLens()
		for _, nt := range labeled {
			if minLens[int(nt)-grammar.NumTerminals] >= 0 {
				s.vl = append(s.vl, nt)
			}
		}
		return
	}
	s.cg, s.census = compact(scratch, s.sroot, b, sp)
	// Compaction keeps exactly the labeled NTs with nonempty languages, so
	// survivorship in Fwd is the productivity filter.
	for _, nt := range labeled {
		if _, ok := s.cg.Fwd[nt]; ok {
			s.vl = append(s.vl, nt)
		}
	}
}

// compact compacts the slice rooted at root under a "compact"/"slice" child
// of sp carrying the compaction census, and returns the slice census.
func compact(g *grammar.Grammar, root grammar.Sym, b *budget.Budget, sp *obs.Span) (*grammar.Compacted, vcache.SliceCensus) {
	csp := sp.Child("compact", "slice")
	cg, cstats := grammar.CompactSlice(g, root, b)
	csp.Count("compact.nts.in", int64(cstats.NTsIn))
	csp.Count("compact.prods.in", int64(cstats.ProdsIn))
	csp.Count("compact.nts.out", int64(cstats.NTsOut))
	csp.Count("compact.prods.out", int64(cstats.ProdsOut))
	csp.Count("compact.inlined", int64(cstats.InlinedNTs))
	csp.End()
	return cg, vcache.SliceCensus{
		SliceNTs: cstats.NTsIn, SliceProds: cstats.ProdsIn,
		CompactNTs: cstats.NTsOut, CompactProds: cstats.ProdsOut,
	}
}

// check runs the policy cascade over a prepared slice, or copies the
// verdict a cache answered with this check's own time, budget use and
// probes. CheckHotspotT recovers its budget trips and panics.
func (c *Checker) check(s *slice, b *budget.Budget, sp *obs.Span) *Result {
	if s.hit != nil {
		out := *s.hit
		out.CheckTime = time.Since(s.start)
		out.BudgetSteps, out.BudgetMemHigh = b.Steps(), b.MemHigh()
		out.Memo, out.Disk = s.memo, s.disk
		return &out
	}
	b.Check()
	t := c.tables(sp)
	sp.Count("policy.labeled-nts", int64(len(s.vl)))
	res := &Result{LabeledNTs: len(s.vl), Census: Census{SliceCensus: s.census}, Memo: s.memo, Disk: s.disk}
	var undecided []grammar.Sym
	if c.UseMarkerConstruction {
		undecided = t.cascadeReference(s.scratch, s.sroot, s.vl, res, b, sp)
	} else {
		undecided = t.cascadeFast(s, res, b, sp)
	}

	// Check 5: derivability of the whole query grammar covers the rest. It
	// runs on the original slice: derivability is checked structurally with
	// heuristic caps, so unlike the relation fixpoints it is not invariant
	// under compaction.
	if len(undecided) > 0 {
		c5 := sp.Child("check", "5:derivability", obs.Attr{Key: "undecided", Val: fmt.Sprint(len(undecided))})
		_, ok := t.deriv.DerivableT(s.scratch, s.sroot, []grammar.Sym{t.sql.Start}, b, c5)
		c5.SetAttr("derivable", fmt.Sprint(ok))
		c5.End()
		if !ok {
			for _, x := range undecided {
				w, _ := s.scratch.WitnessString(x)
				res.Reports = append(res.Reports, Report{Label: s.scratch.LabelOf(x), Check: CheckNotDerivable, Witness: w, Source: s.scratch.RawName(x)})
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
	// First writer wins; a concurrent loser computed an identical Result
	// (canonical report order), so dropping it is harmless.
	c.memo.LoadOrStore(s.key, res)
	if c.Disk != nil && !c.UseMarkerConstruction {
		c.Disk.Put(s.key, CacheVersion, &vcache.Entry{VerdictRecord: ToRecord(res), SliceCensus: res.SliceCensus})
	}
	return res
}

// ToRecord converts a complete verdict to the record both persistent
// stores embed: the verdict cache's entries and the page summaries.
func ToRecord(res *Result) vcache.VerdictRecord {
	v := vcache.VerdictRecord{Verdict: res.Verdict.String(), LabeledNTs: res.LabeledNTs}
	for _, r := range res.Reports {
		v.Reports = append(v.Reports, vcache.Report{
			Label:   uint8(r.Label),
			Check:   int(r.Check),
			Witness: r.Witness,
			Source:  r.Source,
		})
	}
	return v
}

// FromRecord rebuilds a Result from a persisted verdict record; the caller
// fills the census from the record beside it. A report names its
// nonterminal by Source, so a rebuilt Result's reports equal the computed
// ones.
func FromRecord(v *vcache.VerdictRecord) *Result {
	res := &Result{LabeledNTs: v.LabeledNTs}
	for _, r := range v.Reports {
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
	return res
}

// cascadeReference runs checks 1–4 with the paper's original constructions
// over the uncompacted slice: per-nonterminal regular intersections and the
// marker-terminal context grammar. It anchors Ablation E and is the
// reference the compacted fast path is differentially tested against. One
// child span collects the per-nonterminal intersection traffic.
func (t *tables) cascadeReference(scratch *grammar.Grammar, sroot grammar.Sym, vl []grammar.Sym, res *Result, b *budget.Budget, hsp *obs.Span) []grammar.Sym {
	sp := hsp.Child("check", "1-4:marker-reference")
	defer sp.End()
	var undecided []grammar.Sym
	for _, x := range vl {
		label := scratch.LabelOf(x)

		// Check 1: odd number of unescaped quotes.
		if w, ok := grammar.IntersectWitnessT(scratch, x, t.oddQuotes, b, sp); ok {
			res.Reports = append(res.Reports, Report{Label: label, Check: CheckUnconfinableQuotes, Witness: w, Source: scratch.RawName(x)})
			continue
		}

		// Check 2: string-literal position via the marker construction.
		rt := scratch.ReplaceWithMarker(sroot, x)
		if !markerAppears(rt, b, sp) {
			continue // X never reaches the query text
		}
		if grammar.IntersectEmptyT(rt, rt.Start(), t.evenCtx, b, sp) {
			if w, ok := grammar.IntersectWitnessT(scratch, x, t.unescQuote, b, sp); ok {
				res.Reports = append(res.Reports, Report{Label: label, Check: CheckLiteralEscape, Witness: w, Source: scratch.RawName(x)})
			}
			continue
		}

		// Check 3: numeric literals only.
		if grammar.IntersectEmptyT(scratch, x, t.nonNumeric, b, sp) {
			continue
		}

		// Check 4: known-unconfinable fragments.
		attacked := false
		for _, atk := range t.attacks {
			if w, ok := grammar.IntersectWitnessT(scratch, x, atk.dfa, b, sp); ok {
				res.Reports = append(res.Reports, Report{Label: label, Check: CheckAttackString, Witness: w, Source: scratch.RawName(x)})
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
func (t *tables) cascadeFast(s *slice, res *Result, b *budget.Budget, hsp *obs.Span) []grammar.Sym {
	scratch := s.scratch
	relG, relRoot := s.cg.G, s.cg.Root
	minLens := relG.MinLens()
	// One production snapshot feeds every fixpoint: the cascade runs one
	// relation computation per check DFA (3 + one per attack pattern) over
	// the same grammar.
	plan := grammar.NewRelPlan(relG, minLens, b)
	c1 := hsp.Child("check", "1:odd-unescaped-quotes")
	oddRel := plan.RelsT(t.oddQuotes, b, c1)
	c1.End()
	c2 := hsp.Child("check", "2:string-literal-position")
	ctxInfo := t.computeContexts(relG, relRoot, oddRel, minLens, b, c2)
	unescRel := plan.RelsT(t.unescQuote, b, c2)
	c2.End()
	c3 := hsp.Child("check", "3:numeric-literal")
	numRel := plan.RelsT(t.nonNumeric, b, c3)
	c3.End()
	c4 := hsp.Child("check", "4:attack-string")
	defer c4.End()
	// One union-DFA fixpoint prefilters check 4: most nonterminals derive
	// no attack fragment at all, and the per-pattern fixpoints — needed
	// only to attribute a match to its first pattern — run lazily.
	var unionRel [][]uint32
	if t.attackUnion != nil {
		unionRel = plan.RelsT(t.attackUnion, b, c4)
	}
	attackRels := make([][][]uint32, len(t.attacks))
	attackDone := make([]bool, len(t.attacks))
	attackRel := func(i int) [][]uint32 {
		if !attackDone[i] {
			attackDone[i] = true
			attackRels[i] = plan.RelsT(t.attacks[i].dfa, b, c4)
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
		if nonempty(oddRel, t.oddQuotes, cx) {
			w := witness(CheckUnconfinableQuotes, x, t.oddQuotes)
			res.Reports = append(res.Reports, Report{Label: label, Check: CheckUnconfinableQuotes, Witness: w, Source: scratch.RawName(x)})
			continue
		}

		// Check 2: string-literal position.
		occurs, literalOnly := ctxInfo.literalOnly(cx)
		if !occurs {
			continue
		}
		if literalOnly {
			if nonempty(unescRel, t.unescQuote, cx) {
				w := witness(CheckLiteralEscape, x, t.unescQuote)
				res.Reports = append(res.Reports, Report{Label: label, Check: CheckLiteralEscape, Witness: w, Source: scratch.RawName(x)})
			}
			continue
		}

		// Check 3: numeric literals only.
		if !nonempty(numRel, t.nonNumeric, cx) {
			continue
		}

		// Check 4: known-unconfinable fragments.
		attacked := false
		if t.attackUnion == nil || nonempty(unionRel, t.attackUnion, cx) {
			for i, atk := range t.attacks {
				if nonempty(attackRel(i), atk.dfa, cx) {
					w := witness(CheckAttackString, x, atk.dfa)
					res.Reports = append(res.Reports, Report{Label: label, Check: CheckAttackString, Witness: w, Source: scratch.RawName(x)})
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
