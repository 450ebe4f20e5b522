// Package analysis implements phase 1 of the paper: the string-taint
// analysis (§3.1). It walks the PHP AST abstract-interpreter style — the
// environment maps each variable to a grammar nonterminal, assignments mint
// fresh nonterminals (implicit SSA, Figure 5), joins union branch versions,
// loops introduce recursive header nonterminals — and emits an extended
// context-free grammar in which string-operation applications are deferred
// productions. Lowering (lower.go) then resolves those via FST images and
// guard intersections, approximating operations caught in grammar cycles by
// their transducer ranges, exactly as §3.1.2 prescribes. Every query
// construction site ($DB->query, mysql_query, …) becomes a hotspot whose
// root nonterminal derives all queries the program may issue there.
package analysis

import (
	"fmt"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sqlciv/internal/automata"
	"sqlciv/internal/budget"
	"sqlciv/internal/fst"
	"sqlciv/internal/grammar"
	"sqlciv/internal/obs"
	"sqlciv/internal/php"
)

// Options configures the analysis.
type Options struct {
	// DisableGuardRefinement turns off regex-condition branch refinement
	// (ablation: the paper's precision over plain taint tracking).
	DisableGuardRefinement bool
	// MaxIncludeDepth bounds nested includes.
	MaxIncludeDepth int
	// SliceToSinks resolves deferred string operations only when they can
	// reach a query hotspot — the backward-dataflow improvement the paper
	// proposes in §5.3/§7 to stop the analyzer from eagerly processing
	// display-only string code (Tiger's forum markup). With slicing on,
	// PageOutput no longer reflects display-path transductions, so leave
	// it off when the XSS checker will run.
	SliceToSinks bool
	// MagicQuotes models PHP's magic_quotes_gpc=On (the era's default):
	// GET/POST/cookie data arrives pre-escaped by addslashes, so direct
	// sources derive the addslashes range instead of Σ*. Quoted literal
	// contexts then verify — and unquoted numeric contexts correctly keep
	// reporting, the classic residual vulnerability of magic quotes.
	MagicQuotes bool
}

// Hotspot is one query-construction site.
type Hotspot struct {
	File string
	Line int
	Call string
	// Root derives every query string this site may send.
	Root grammar.Sym
}

// Result is the output of the string-taint analysis.
type Result struct {
	G        *grammar.Grammar
	Hotspots []Hotspot
	// PageOutput derives every HTML document the page can emit (echo,
	// print, and inline HTML, across all control-flow paths including
	// early exits). Zero when the page emits nothing. This is the input
	// to the cross-site-scripting checker — the paper's proposed
	// extension of the technique (§7).
	PageOutput grammar.Sym
	// Stats
	Files         int
	Lines         int
	NumNTs        int
	NumProds      int
	AnalysisTime  time.Duration
	ApproxInCycle int // string ops approximated because of grammar cycles
	SlicedOps     int // string ops skipped by backward slicing
}

// Resolver supplies source files: the entry page plus anything includable.
type Resolver interface {
	// Load parses and returns the file at path.
	Load(path string) (*php.File, bool)
	// Files lists every path in the project layout (the paper treats the
	// directory layout as part of the specification for dynamic includes).
	Files() []string
}

// ParseCache holds parse trees keyed by path, each valid for the content it
// parsed: a load of changed content parses again and replaces the entry, so
// the cache stays bounded by the project's size and one cache can serve
// every run over an evolving project (a core.Session keeps one). Parse
// failures are cached too, since the same content fails the same way. Safe
// for concurrent use.
type ParseCache struct {
	mu    sync.Mutex
	files map[string]parsed
}

// parsed is one cached parse: the content it parsed and its tree, nil when
// the parse failed.
type parsed struct {
	src  string
	file *php.File
}

// NewParseCache returns an empty cache.
func NewParseCache() *ParseCache { return &ParseCache{files: map[string]parsed{}} }

// Resolver returns a resolver over sources that parses through c, with its
// load counters at zero.
func (c *ParseCache) Resolver(sources map[string]string) *MapResolver {
	return &MapResolver{Sources: sources, cache: c}
}

// load returns the parse of src at path, and whether the cache served it.
// Parsing runs outside the lock, so pages loading distinct files in parallel
// never wait on each other; two loads racing on one uncached file both
// parse it, and the later of the two equivalent trees stays.
func (c *ParseCache) load(path, src string) (f *php.File, hit bool) {
	c.mu.Lock()
	p, ok := c.files[path]
	c.mu.Unlock()
	if ok && p.src == src {
		return p.file, true
	}
	f, err := php.Parse(path, src)
	if err != nil {
		f = nil
	}
	c.mu.Lock()
	c.files[path] = parsed{src: src, file: f}
	c.mu.Unlock()
	return f, false
}

// MapResolver is a Resolver over an in-memory map of sources that parses
// through a ParseCache, so a file included from many pages is parsed once.
// It is safe for concurrent use (pages can be analyzed in parallel), and it
// counts its own loads: resolvers sharing one cache each report only their
// own traffic.
type MapResolver struct {
	Sources      map[string]string
	cache        *ParseCache
	hits, misses atomic.Int64
}

// NewMapResolver returns a resolver over the given path→source map with a
// fresh parse cache.
func NewMapResolver(sources map[string]string) *MapResolver {
	return NewParseCache().Resolver(sources)
}

// Cache returns the parse cache m loads through.
func (m *MapResolver) Cache() *ParseCache { return m.cache }

// Load implements Resolver.
func (m *MapResolver) Load(path string) (*php.File, bool) {
	src, ok := m.Sources[path]
	if !ok {
		return nil, false
	}
	f, hit := m.cache.load(path, src)
	if hit {
		m.hits.Add(1)
	} else {
		m.misses.Add(1)
	}
	return f, f != nil
}

// ParseCacheStats returns how many of m's loads the parse cache served
// (hits) and how many parsed (misses), failed parses included. A path with
// no source counts as neither.
func (m *MapResolver) ParseCacheStats() (hits, misses int64) {
	return m.hits.Load(), m.misses.Load()
}

// Files implements Resolver.
func (m *MapResolver) Files() []string {
	out := make([]string, 0, len(m.Sources))
	for p := range m.Sources {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// termKind describes how a statement list ended.
type termKind int

const (
	termNone termKind = iota
	termReturn
	termExit
)

// env maps variable keys to nonterminals. Keys: "x" for $x, "x[k]" for
// $x['k'] with constant key, "x[]" for the any-element entry.
type env map[string]grammar.Sym

func (e env) clone() env {
	out := make(env, len(e))
	for k, v := range e {
		out[k] = v
	}
	return out
}

type opKind int

const (
	opFST opKind = iota
	opIntersect
)

type opApp struct {
	kind opKind
	t    *fst.FST
	dfa  *automata.DFA
	arg  grammar.Sym
	// what built this op, for diagnostics
	desc string
}

type funcInfo struct {
	decl      *php.FuncDecl
	params    []grammar.Sym
	ret       grammar.Sym
	out       grammar.Sym // what the function body echoes
	analyzing bool
	analyzed  bool
}

type analyzer struct {
	g        *grammar.Grammar
	b        *budget.Budget
	opts     Options
	resolver Resolver
	funcs    map[string]*php.FuncDecl
	infos    map[string]*funcInfo
	globals  map[string]grammar.Sym // flow-insensitive global accumulation
	ops      map[grammar.Sym]*opApp
	hotspots []Hotspot
	curFile  string
	incStack []string
	included map[string]bool // for *_once
	files    int
	lines    int
	approx   int
	sliced   int

	emptyNT  grammar.Sym
	boolNT   grammar.Sym
	numNT    grammar.Sym
	sigmaNTs map[grammar.Label]grammar.Sym

	lits       map[string]grammar.Sym
	arrayish   map[grammar.Sym]bool
	magicNT    grammar.Sym
	inFunction bool
	curReturns []grammar.Sym
	// exitOutputs collects the page output of paths that end in exit/die,
	// so the XSS checker sees every emitted document.
	exitOutputs []grammar.Sym

	// reachBuf is the reusable visited buffer for opReady's reachability
	// walks, which otherwise allocate one NumNTs-sized slice per deferred
	// op per lowering pass.
	reachBuf []bool
	// keyBuf is memoKey's scratch; memoHits, memoRecorded and memoMisses
	// count the page's constructions by how the lowering memo served them.
	keyBuf                             []byte
	memoHits, memoRecorded, memoMisses int
}

// outKey is the environment key accumulating page output. It contains a
// '*' so it can never collide with a PHP variable name.
const outKey = "*out*"

// appendOutput concatenates val onto the page-output accumulator.
func (a *analyzer) appendOutput(e env, val grammar.Sym) {
	if prev, ok := e[outKey]; ok {
		nt := a.g.NewNT("")
		a.g.Add(nt, prev, val)
		e[outKey] = nt
	} else {
		e[outKey] = val
	}
}

// Analyze runs the string-taint analysis with entry as the top-level page.
func Analyze(resolver Resolver, entry string, opts Options) (*Result, error) {
	return AnalyzeT(resolver, entry, opts, nil, nil)
}

// AnalyzeT is Analyze metered by b and observed by sp. The statement walk
// and the lowering fixpoint — including the Figure 7 intersections that
// guard refinements materialize — consume steps and probe cancellation. A
// budget trip — or any panic inside the analysis, which this boundary
// isolates per page — surfaces as a *budget.Exceeded error, never a partial
// Result. A nil b is unlimited.
//
// sp is normally the page span the core driver opened: the AST walk and the
// lowering fixpoint get "phase" child spans, and the emitted grammar's
// census lands on sp as counters ("grammar.nts", "grammar.prods",
// "analysis.files", "analysis.lines").
// When the analysis degrades mid-phase the open phase span is dropped, not
// emitted — the surrounding page span carries the degradation. A nil sp
// traces nothing.
func AnalyzeT(resolver Resolver, entry string, opts Options, b *budget.Budget, sp *obs.Span) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			exc := budget.AsExceeded(r)
			if exc.Reason == budget.ReasonPanic {
				exc.Detail += "\n" + string(debug.Stack())
			}
			res, err = nil, exc
		}
	}()
	if opts.MaxIncludeDepth == 0 {
		opts.MaxIncludeDepth = 32
	}
	start := time.Now()
	a := &analyzer{
		g:        grammar.New(),
		b:        b,
		opts:     opts,
		resolver: resolver,
		funcs:    map[string]*php.FuncDecl{},
		infos:    map[string]*funcInfo{},
		globals:  map[string]grammar.Sym{},
		ops:      map[grammar.Sym]*opApp{},
		included: map[string]bool{},
		sigmaNTs: map[grammar.Label]grammar.Sym{},
	}
	a.emptyNT = a.g.NewNT("empty")
	a.g.Add(a.emptyNT)
	a.boolNT = a.g.NewNT("bool")
	a.g.Add(a.boolNT)
	a.g.AddString(a.boolNT, "1")
	a.numNT = a.g.NewNT("num")
	d := a.g.NewNT("digit")
	for c := byte('0'); c <= '9'; c++ {
		a.g.Add(d, grammar.T(c))
	}
	ds := a.g.NewNT("digits")
	a.g.Add(ds, d)
	a.g.Add(ds, d, ds)
	a.g.Add(a.numNT, ds)
	a.g.Add(a.numNT, grammar.T('-'), ds)

	wsp := sp.Child("phase", "walk")
	file, ok := resolver.Load(entry)
	if !ok {
		return nil, fmt.Errorf("analysis: cannot load entry %q", entry)
	}
	e := env{}
	a.analyzeFileInto(e, file)
	pageOut := e[outKey]
	for _, out := range a.exitOutputs {
		pageOut = a.union(pageOut, out)
	}
	wsp.Count("analysis.files", int64(a.files))
	wsp.Count("analysis.lines", int64(a.lines))
	wsp.End()
	lsp := sp.Child("phase", "lower", obs.Attr{Key: "deferred-ops", Val: fmt.Sprint(len(a.ops))})
	a.lower()
	lsp.Count("lower.approx-in-cycle", int64(a.approx))
	lsp.Count("lower.sliced-ops", int64(a.sliced))
	lsp.Count("lower.memo-hits", int64(a.memoHits))
	lsp.Count("lower.memo-recorded", int64(a.memoRecorded))
	lsp.Count("lower.memo-misses", int64(a.memoMisses))
	lsp.End()
	sp.Count("grammar.nts", int64(a.g.NumNTs()))
	sp.Count("grammar.prods", int64(a.g.NumProds()))
	// Allocator behavior of the page grammar: retained slab footprint plus
	// the grammar's own probes of the process-global terminal-run intern
	// pool.
	sp.Count("arena.slab-bytes", a.g.SlabBytes())
	hits, misses := a.g.InternStats()
	sp.Count("arena.intern-hits", hits)
	sp.Count("arena.intern-misses", misses)

	res = &Result{
		PageOutput:    pageOut,
		G:             a.g,
		Hotspots:      a.hotspots,
		Files:         a.files,
		Lines:         a.lines,
		NumNTs:        a.g.NumNTs(),
		NumProds:      a.g.NumProds(),
		AnalysisTime:  time.Since(start),
		ApproxInCycle: a.approx,
		SlicedOps:     a.sliced,
	}
	return res, nil
}

// analyzeFileInto runs a file's statements in the given environment.
func (a *analyzer) analyzeFileInto(e env, f *php.File) termKind {
	prevFile := a.curFile
	a.curFile = f.Name
	a.files++
	a.lines += countLines(f)
	for name, fd := range f.Funcs {
		if _, exists := a.funcs[name]; !exists {
			a.funcs[name] = fd
		}
	}
	term := a.analyzeStmts(e, f.Stmts)
	a.curFile = prevFile
	if term == termReturn {
		// `return` in an included file ends that file, not the page.
		return termNone
	}
	return term
}

func countLines(f *php.File) int {
	max := 1
	var walk func(stmts []php.Stmt)
	walk = func(stmts []php.Stmt) {
		for _, s := range stmts {
			if s.Pos() > max {
				max = s.Pos()
			}
			switch v := s.(type) {
			case *php.IfStmt:
				walk(v.Then)
				walk(v.Else)
			case *php.WhileStmt:
				walk(v.Body)
			case *php.ForStmt:
				walk(v.Body)
			case *php.ForeachStmt:
				walk(v.Body)
			case *php.SwitchStmt:
				for _, cs := range v.Cases {
					walk(cs.Body)
				}
			case *php.FuncDecl:
				walk(v.Body)
			}
		}
	}
	walk(f.Stmts)
	return max
}

// analyzeStmts interprets a statement list, mutating e, and reports how the
// list terminated.
func (a *analyzer) analyzeStmts(e env, stmts []php.Stmt) termKind {
	for _, s := range stmts {
		if t := a.analyzeStmt(e, s); t != termNone {
			return t
		}
	}
	return termNone
}

func (a *analyzer) analyzeStmt(e env, s php.Stmt) termKind {
	a.b.Step(1)
	switch v := s.(type) {
	case *php.ExprStmt:
		if inc, ok := v.X.(*php.IncludeExpr); ok {
			return a.doInclude(e, inc)
		}
		if ex, ok := v.X.(*php.ExitExpr); ok {
			if ex.Arg != nil {
				a.appendOutput(e, a.evalExpr(e, ex.Arg))
			}
			if out, ok2 := e[outKey]; ok2 {
				a.exitOutputs = append(a.exitOutputs, out)
			}
			return termExit
		}
		// The `guard() or die()` idiom: after the statement the guard
		// held, so refine the fall-through environment.
		if bin, ok := v.X.(*php.Binary); ok && bin.Op == "||" {
			if _, isExit := bin.R.(*php.ExitExpr); isExit {
				a.evalExpr(e, bin.L)
				if !a.opts.DisableGuardRefinement {
					a.refine(e, bin.L, true)
				}
				return termNone
			}
		}
		a.evalExpr(e, v.X)
		return termNone
	case *php.EchoStmt:
		for _, arg := range v.Args {
			a.appendOutput(e, a.evalExpr(e, arg))
		}
		return termNone
	case *php.HTMLStmt:
		a.appendOutput(e, a.litNT(v.Text))
		return termNone
	case *php.IfStmt:
		return a.analyzeIf(e, v)
	case *php.WhileStmt:
		a.analyzeLoop(e, v.Body, v.Cond, nil)
		return termNone
	case *php.ForStmt:
		for _, x := range v.Init {
			a.evalExpr(e, x)
		}
		var cond php.Expr
		if len(v.Cond) > 0 {
			cond = v.Cond[len(v.Cond)-1]
		}
		a.analyzeLoop(e, v.Body, cond, v.Post)
		return termNone
	case *php.ForeachStmt:
		a.analyzeForeach(e, v)
		return termNone
	case *php.SwitchStmt:
		a.analyzeSwitch(e, v)
		return termNone
	case *php.BreakStmt, *php.ContinueStmt:
		// Conservative: fall through (the loop header union covers all
		// iteration counts).
		return termNone
	case *php.ReturnStmt:
		if v.X != nil {
			a.curReturns = append(a.curReturns, a.evalExpr(e, v.X))
		} else {
			a.curReturns = append(a.curReturns, a.emptyNT)
		}
		return termReturn
	case *php.FuncDecl:
		a.funcs[strings.ToLower(v.Name)] = v
		return termNone
	case *php.GlobalStmt:
		for _, name := range v.Names {
			e[name] = a.globalNT(name)
			e[name+"[]"] = a.globalNT(name + "[]")
		}
		return termNone
	}
	return termNone
}

// union returns a nonterminal deriving L(a) ∪ L(b); zero symbols are
// treated as absent.
func (a *analyzer) union(x, y grammar.Sym) grammar.Sym {
	if x == 0 {
		return y
	}
	if y == 0 {
		return x
	}
	if x == y {
		return x
	}
	nt := a.g.NewNT("")
	a.g.Add(nt, x)
	a.g.Add(nt, y)
	return nt
}

// globalNT returns the flow-insensitive accumulator nonterminal for a
// global variable (used by `global $x` inside functions).
func (a *analyzer) globalNT(name string) grammar.Sym {
	if s, ok := a.globals[name]; ok {
		return s
	}
	s := a.g.NewNT("G_" + name)
	a.globals[name] = s
	return s
}

// recordGlobal accumulates a top-level assignment into the global NT.
func (a *analyzer) recordGlobal(key string, val grammar.Sym) {
	g := a.globalNT(key)
	a.g.Add(g, val)
}

func (a *analyzer) analyzeIf(e env, v *php.IfStmt) termKind {
	// Evaluate the condition first so assignments inside it are visible on
	// both branches.
	a.evalExpr(e, v.Cond)
	thenEnv := e.clone()
	elseEnv := e.clone()
	if !a.opts.DisableGuardRefinement {
		a.refine(thenEnv, v.Cond, true)
		a.refine(elseEnv, v.Cond, false)
	}
	tTerm := a.analyzeStmts(thenEnv, v.Then)
	eTerm := a.analyzeStmts(elseEnv, v.Else)
	switch {
	case tTerm != termNone && eTerm != termNone:
		if tTerm == termExit && eTerm == termExit {
			return termExit
		}
		return termReturn
	case tTerm != termNone:
		replaceEnv(e, elseEnv)
		return termNone
	case eTerm != termNone:
		replaceEnv(e, thenEnv)
		return termNone
	default:
		a.mergeInto(e, thenEnv, elseEnv)
		return termNone
	}
}

func replaceEnv(dst, src env) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}

// mergeInto joins two branch environments into dst (the classic Figure 5
// phi: X4 → X2 | X3).
func (a *analyzer) mergeInto(dst, e1, e2 env) {
	// In sorted order, so every run numbers the join's nonterminals alike.
	keys := make([]string, 0, len(e1)+len(e2)+len(dst))
	for _, e := range []env{e1, e2, dst} {
		for k := range e {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	for _, k := range slices.Compact(keys) {
		v1, ok1 := e1[k]
		v2, ok2 := e2[k]
		switch {
		case ok1 && ok2 && v1 == v2:
			dst[k] = v1
		case ok1 && ok2:
			dst[k] = a.union(v1, v2)
		case ok1:
			dst[k] = a.union(v1, a.emptyNT) // unset on the other path ⇒ ""
		case ok2:
			dst[k] = a.union(v2, a.emptyNT)
		}
	}
}

// analyzeLoop handles while/for: loop-carried variables get recursive
// header nonterminals H with H → pre | post-iteration.
func (a *analyzer) analyzeLoop(e env, body []php.Stmt, cond php.Expr, post []php.Expr) {
	assigned := map[string]bool{outKey: true}
	collectAssigned(body, assigned)
	for _, x := range post {
		collectAssignedExpr(x, assigned)
	}
	keys, headers := a.loopHeaders(e, assigned)
	bodyEnv := e.clone()
	if cond != nil && !a.opts.DisableGuardRefinement {
		a.refine(bodyEnv, cond, true)
	}
	a.analyzeStmts(bodyEnv, body)
	for _, x := range post {
		a.evalExpr(bodyEnv, x)
	}
	a.closeLoop(e, bodyEnv, keys, headers)
}

// loopHeaders gives each loop-carried variable a header nonterminal H with
// H → its value before the loop ("" when unset), binds it in e, and
// returns the variables in the order it made their headers: sorted, so
// every run numbers the headers alike.
func (a *analyzer) loopHeaders(e env, assigned map[string]bool) ([]string, map[string]grammar.Sym) {
	keys := make([]string, 0, len(assigned))
	for k := range assigned {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	headers := make(map[string]grammar.Sym, len(keys))
	for _, k := range keys {
		h := a.g.NewNT("")
		if prev, ok := e[k]; ok {
			a.g.Add(h, prev)
		} else {
			a.g.Add(h, a.emptyNT)
		}
		headers[k] = h
		e[k] = h
	}
	return keys, headers
}

// closeLoop adds H → post-iteration value to each header and leaves every
// carried variable bound to its header in e (0+ iterations).
func (a *analyzer) closeLoop(e, bodyEnv env, keys []string, headers map[string]grammar.Sym) {
	for _, k := range keys {
		if v, ok := bodyEnv[k]; ok && v != headers[k] {
			a.g.Add(headers[k], v)
		}
	}
	for _, k := range keys {
		e[k] = headers[k]
	}
}

func (a *analyzer) analyzeForeach(e env, v *php.ForeachStmt) {
	subj := a.evalArrayElems(e, v.Subject)
	assigned := map[string]bool{v.ValVar: true, outKey: true}
	if v.KeyVar != "" {
		assigned[v.KeyVar] = true
	}
	collectAssigned(v.Body, assigned)
	keys, headers := a.loopHeaders(e, assigned)
	// Each iteration binds the value (and key) variable to an element.
	a.g.Add(headers[v.ValVar], subj)
	if v.KeyVar != "" {
		// Keys: unknown strings drawn from the same array — approximate
		// with the element language as well (sound for taint).
		a.g.Add(headers[v.KeyVar], subj)
	}
	bodyEnv := e.clone()
	a.analyzeStmts(bodyEnv, v.Body)
	a.closeLoop(e, bodyEnv, keys, headers)
}

func (a *analyzer) analyzeSwitch(e env, v *php.SwitchStmt) {
	a.evalExpr(e, v.Subject)
	// Each case runs from its own copy (fallthrough is approximated by the
	// independent-branch union, which over-approximates).
	branches := make([]env, 0, len(v.Cases)+1)
	hasDefault := false
	for _, cs := range v.Cases {
		if cs.Match == nil {
			hasDefault = true
		}
		be := e.clone()
		if t := a.analyzeStmts(be, cs.Body); t == termNone {
			branches = append(branches, be)
		}
	}
	if !hasDefault {
		branches = append(branches, e.clone())
	}
	if len(branches) == 0 {
		return
	}
	acc := branches[0]
	for _, b := range branches[1:] {
		merged := env{}
		a.mergeInto(merged, acc, b)
		acc = merged
	}
	replaceEnv(e, acc)
}

// collectAssigned gathers variables assigned anywhere in a statement list.
func collectAssigned(stmts []php.Stmt, out map[string]bool) {
	for _, s := range stmts {
		switch v := s.(type) {
		case *php.ExprStmt:
			collectAssignedExpr(v.X, out)
		case *php.EchoStmt:
			for _, x := range v.Args {
				collectAssignedExpr(x, out)
			}
		case *php.IfStmt:
			collectAssignedExpr(v.Cond, out)
			collectAssigned(v.Then, out)
			collectAssigned(v.Else, out)
		case *php.WhileStmt:
			collectAssignedExpr(v.Cond, out)
			collectAssigned(v.Body, out)
		case *php.ForStmt:
			for _, x := range v.Init {
				collectAssignedExpr(x, out)
			}
			for _, x := range v.Post {
				collectAssignedExpr(x, out)
			}
			collectAssigned(v.Body, out)
		case *php.ForeachStmt:
			out[v.ValVar] = true
			if v.KeyVar != "" {
				out[v.KeyVar] = true
			}
			collectAssigned(v.Body, out)
		case *php.SwitchStmt:
			for _, cs := range v.Cases {
				collectAssigned(cs.Body, out)
			}
		case *php.ReturnStmt:
			if v.X != nil {
				collectAssignedExpr(v.X, out)
			}
		}
	}
}

func collectAssignedExpr(x php.Expr, out map[string]bool) {
	switch v := x.(type) {
	case *php.Assign:
		switch t := v.Target.(type) {
		case *php.Var:
			out[t.Name] = true
		case *php.Index:
			if base, ok := t.Base.(*php.Var); ok {
				out[base.Name] = true
				out[base.Name+"[]"] = true
				if key, ok2 := constKey(t.Key); ok2 {
					out[base.Name+"["+key+"]"] = true
				}
			}
		}
		collectAssignedExpr(v.Value, out)
	case *php.Binary:
		collectAssignedExpr(v.L, out)
		collectAssignedExpr(v.R, out)
	case *php.Unary:
		collectAssignedExpr(v.X, out)
		if v.Op == "++" || v.Op == "--" {
			if t, ok := v.X.(*php.Var); ok {
				out[t.Name] = true
			}
		}
	case *php.Ternary:
		collectAssignedExpr(v.Cond, out)
		if v.Then != nil {
			collectAssignedExpr(v.Then, out)
		}
		collectAssignedExpr(v.Else, out)
	case *php.Call:
		for _, arg := range v.Args {
			collectAssignedExpr(arg, out)
		}
	case *php.MethodCall:
		for _, arg := range v.Args {
			collectAssignedExpr(arg, out)
		}
	case *php.ListAssign:
		for _, tgt := range v.Targets {
			if t, ok := tgt.(*php.Var); ok {
				out[t.Name] = true
			}
		}
		collectAssignedExpr(v.Value, out)
	}
}

func constKey(x php.Expr) (string, bool) {
	switch v := x.(type) {
	case *php.StrLit:
		return v.Value, true
	case *php.NumLit:
		return v.Value, true
	}
	return "", false
}

// doInclude resolves and analyzes an include/require statement.
func (a *analyzer) doInclude(e env, inc *php.IncludeExpr) termKind {
	if len(a.incStack) >= a.opts.MaxIncludeDepth {
		return termNone
	}
	once := strings.HasSuffix(inc.Kind, "_once")
	var candidates []string
	if name, ok := a.constStringExpr(inc.Arg); ok {
		candidates = []string{name}
	} else {
		// Dynamic include: treat the project layout as the specification
		// (paper §4) — every project file whose path is in the argument's
		// language is a candidate.
		argSym := a.evalExpr(e, inc.Arg)
		rec := grammar.NewRecognizer(a.g, argSym)
		for _, path := range a.resolver.Files() {
			if rec.RecognizeString(argSym, path) {
				candidates = append(candidates, path)
			}
		}
	}
	if len(candidates) == 0 {
		return termNone
	}
	var envs []env
	for _, path := range candidates {
		if once && a.included[path] {
			continue
		}
		if inStack(a.incStack, path) {
			continue
		}
		f, ok := a.resolver.Load(path)
		if !ok {
			continue
		}
		a.included[path] = true
		a.incStack = append(a.incStack, path)
		ce := e.clone()
		term := a.analyzeFileInto(ce, f)
		a.incStack = a.incStack[:len(a.incStack)-1]
		if term == termExit {
			continue // this candidate always exits; drop its env
		}
		envs = append(envs, ce)
	}
	if len(envs) == 0 {
		return termNone
	}
	acc := envs[0]
	for _, b := range envs[1:] {
		merged := env{}
		a.mergeInto(merged, acc, b)
		acc = merged
	}
	replaceEnv(e, acc)
	return termNone
}

func inStack(stack []string, path string) bool {
	for _, p := range stack {
		if p == path {
			return true
		}
	}
	return false
}
