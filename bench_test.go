// Benchmark harness regenerating every table and figure of the paper's
// evaluation (§5) plus the ablations DESIGN.md calls out. Each Table 1
// benchmark runs the full two-phase analysis of one synthetic subject and
// reports the row's columns as custom metrics (grammar |V| and |R|, error
// counts); the figure benchmarks exercise the specific mechanism each
// figure illustrates. EXPERIMENTS.md records paper-versus-measured values.
package sqlciv

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"sqlciv/internal/analysis"
	"sqlciv/internal/automata"
	"sqlciv/internal/core"
	"sqlciv/internal/corpus"
	"sqlciv/internal/fst"
	"sqlciv/internal/grammar"
	"sqlciv/internal/policy"
	"sqlciv/internal/rx"
	"sqlciv/internal/taintcheck"
	"sqlciv/internal/vcache"
	"sqlciv/internal/xss"
)

// ---- Table 1 ---------------------------------------------------------------

func benchApp(b *testing.B, app *corpus.App) {
	b.Helper()
	benchAppOpts(b, app, core.Options{})
}

func benchAppOpts(b *testing.B, app *corpus.App, opts core.Options) {
	b.Helper()
	memoHits0, memoMisses0 := grammar.RelMemoStats()
	var last *core.AppResult
	for i := 0; i < b.N; i++ {
		res, err := core.AnalyzeApp(analysis.NewMapResolver(app.Sources), app.Entries, opts)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	direct, falsePos, indirect := 0, 0, 0
	for _, f := range last.Findings {
		switch {
		case !f.Direct():
			indirect++
		case app.FalseFiles[f.File]:
			falsePos++
		default:
			direct++
		}
	}
	if direct != app.Expect.DirectReal || falsePos != app.Expect.DirectFalse || indirect != app.Expect.Indirect {
		b.Fatalf("census drift: got %d/%d/%d want %d/%d/%d",
			direct, falsePos, indirect,
			app.Expect.DirectReal, app.Expect.DirectFalse, app.Expect.Indirect)
	}
	b.ReportMetric(float64(last.NumNTs), "grammar-V")
	b.ReportMetric(float64(last.NumProds), "grammar-R")
	b.ReportMetric(float64(direct), "direct-real")
	b.ReportMetric(float64(falsePos), "direct-false")
	b.ReportMetric(float64(indirect), "indirect")
	b.ReportMetric(float64(last.Lines), "loc")
	b.ReportMetric(last.StringAnalysisTime.Seconds()*1000, "stringan-ms")
	b.ReportMetric(last.CheckTime.Seconds()*1000, "check-ms")
	if last.CompactProds > 0 {
		b.ReportMetric(float64(last.CompactProds), "grammar-R-compacted")
	}
	// Hit percentage over all hotspot checks: in-memory memo hits plus
	// persistent disk hits. A disk hit short-circuits before the memoizer,
	// and every disk miss falls through to one memo lookup, so the check
	// total is disk hits + memo lookups. Cold runs sit at 0; the _Warm
	// variants should approach 100.
	hits := last.VerdictCacheHits + last.DiskCacheHits
	if total := last.VerdictCacheMisses + hits; total > 0 {
		b.ReportMetric(100*float64(hits)/float64(total), "verdict-cache-hit-pct")
	}
	// Class-string memo effectiveness inside the relation fixpoints:
	// terminal runs collapsing to an already-composed class sequence.
	memoHits, memoMisses := grammar.RelMemoStats()
	dh, dm := memoHits-memoHits0, memoMisses-memoMisses0
	if dh+dm > 0 {
		b.ReportMetric(100*float64(dh)/float64(dh+dm), "class-memo-hit-pct")
	}
	// Grammar arena census for the last run: retained page-grammar slab
	// bytes, and the hit rate against the process-global terminal-run
	// intern pool. Ratcheted by bench-diff alongside B/op and allocs/op —
	// a slab-bytes jump or a hit-rate collapse is an allocator regression
	// even when wall-clock hides it.
	b.ReportMetric(float64(last.GrammarSlabBytes), "grammar-slab-B")
	if t := last.InternHits + last.InternMisses; t > 0 {
		b.ReportMetric(100*float64(last.InternHits)/float64(t), "intern-hit-pct")
	}
}

// benchAppWarm measures the steady state of the persistent verdict cache:
// one untimed cold run fills a fresh store, then every timed iteration
// re-analyzes the same app against the flushed cache.
func benchAppWarm(b *testing.B, app *corpus.App) {
	b.Helper()
	store, err := vcache.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{VerdictCache: store}
	if _, err := core.AnalyzeApp(analysis.NewMapResolver(app.Sources), app.Entries, opts); err != nil {
		b.Fatal(err)
	}
	if err := store.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	benchAppOpts(b, app, opts)
}

// ---- Incremental re-analysis (BENCH_incremental.json) ----------------------

// benchIncrementalCold is the from-scratch baseline every incremental edit
// is measured against: a fresh session per iteration, so every page fills
// its memo for the first time.
func benchIncrementalCold(b *testing.B, app *corpus.App) {
	b.Helper()
	var last *core.AppResult
	for i := 0; i < b.N; i++ {
		res, err := core.AnalyzeApp(analysis.NewMapResolver(app.Sources), app.Entries,
			core.Options{Session: core.NewSession(core.SessionConfig{})})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.Incr.PagesRecomputed), "pages-recomputed")
	b.ReportMetric(float64(last.Lines), "loc")
}

// benchIncrementalEdit is the headline single-file-edit latency: one untimed
// cold run warms a session, then every timed iteration toggles target (one
// entry page) between its original and an edited form and re-analyzes. Each
// iteration therefore dirties exactly one page — the steady state of an IDE
// or watch-mode client — and the reuse percentages are reported alongside
// the wall time, mirroring the verdict-cache hit metric of the _Warm runs.
//
// An empty target edits the app's first entry. Tiger overrides it to
// static0.php — the same typical content page the CI smoke gate
// (TestIncrementalEditRecheckBudget) edits — because its first entry is the
// app's single most expensive tiger_encode page, whose unavoidable
// recompute cost would measure that page's grammar, not the incremental
// machinery.
func benchIncrementalEdit(b *testing.B, app *corpus.App, target string) {
	b.Helper()
	ses := core.NewSession(core.SessionConfig{})
	sources := make(map[string]string, len(app.Sources))
	for k, v := range app.Sources {
		sources[k] = v
	}
	if _, err := core.AnalyzeApp(analysis.NewMapResolver(sources), app.Entries,
		core.Options{Session: ses}); err != nil {
		b.Fatal(err)
	}
	if target == "" {
		target = app.Entries[0]
	}
	orig, ok := sources[target]
	if !ok {
		b.Fatalf("edit target %q is not a source file", target)
	}
	var last *core.AppResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			sources[target] = orig + "<!-- bench edit -->\n"
		} else {
			sources[target] = orig
		}
		res, err := core.AnalyzeApp(analysis.NewMapResolver(sources), app.Entries,
			core.Options{Session: ses})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	in := last.Incr
	if in == nil || in.PagesRecomputed != 1 {
		b.Fatalf("edit iteration did not recompute exactly one page: %+v", in)
	}
	b.ReportMetric(in.PageReplayPct(), "incr-page-replay-pct")
	b.ReportMetric(in.HotspotReplayPct(), "incr-hotspot-replay-pct")
	b.ReportMetric(in.FileReusePct(), "incr-file-reuse-pct")
	b.ReportMetric(float64(in.FilesParsed), "files-parsed")
}

func BenchmarkIncrementalCold_E107(b *testing.B)   { benchIncrementalCold(b, corpus.E107()) }
func BenchmarkIncrementalCold_EVE(b *testing.B)    { benchIncrementalCold(b, corpus.EVE()) }
func BenchmarkIncrementalCold_Tiger(b *testing.B)  { benchIncrementalCold(b, corpus.Tiger()) }
func BenchmarkIncrementalCold_Utopia(b *testing.B) { benchIncrementalCold(b, corpus.Utopia()) }
func BenchmarkIncrementalCold_Warp(b *testing.B)   { benchIncrementalCold(b, corpus.Warp()) }

func BenchmarkIncrementalEdit_E107(b *testing.B) { benchIncrementalEdit(b, corpus.E107(), "") }
func BenchmarkIncrementalEdit_EVE(b *testing.B)  { benchIncrementalEdit(b, corpus.EVE(), "") }
func BenchmarkIncrementalEdit_Tiger(b *testing.B) {
	benchIncrementalEdit(b, corpus.Tiger(), "static0.php")
}
func BenchmarkIncrementalEdit_Utopia(b *testing.B) { benchIncrementalEdit(b, corpus.Utopia(), "") }
func BenchmarkIncrementalEdit_Warp(b *testing.B)   { benchIncrementalEdit(b, corpus.Warp(), "") }

// parallelOpts runs pages and hotspot checks over one worker per CPU.
func parallelOpts() core.Options {
	return core.Options{Parallel: runtime.NumCPU(), ParallelHotspots: runtime.NumCPU()}
}

func BenchmarkTable1_E107(b *testing.B)   { benchApp(b, corpus.E107()) }
func BenchmarkTable1_EVE(b *testing.B)    { benchApp(b, corpus.EVE()) }
func BenchmarkTable1_Tiger(b *testing.B)  { benchApp(b, corpus.Tiger()) }
func BenchmarkTable1_Utopia(b *testing.B) { benchApp(b, corpus.Utopia()) }
func BenchmarkTable1_Warp(b *testing.B)   { benchApp(b, corpus.Warp()) }

// budgetedOpts enables every budget knob at values no corpus app
// approaches, measuring the metering overhead on the untripped path.
func budgetedOpts() core.Options {
	opts := core.Options{}
	opts.Budget.Timeout = 10 * time.Minute
	opts.Budget.HotspotTimeout = time.Minute
	opts.Budget.MaxSteps = 1 << 40
	opts.Budget.MaxMemBytes = 1 << 40
	return opts
}

func BenchmarkTable1_E107_Budgeted(b *testing.B)   { benchAppOpts(b, corpus.E107(), budgetedOpts()) }
func BenchmarkTable1_EVE_Budgeted(b *testing.B)    { benchAppOpts(b, corpus.EVE(), budgetedOpts()) }
func BenchmarkTable1_Tiger_Budgeted(b *testing.B)  { benchAppOpts(b, corpus.Tiger(), budgetedOpts()) }
func BenchmarkTable1_Utopia_Budgeted(b *testing.B) { benchAppOpts(b, corpus.Utopia(), budgetedOpts()) }
func BenchmarkTable1_Warp_Budgeted(b *testing.B)   { benchAppOpts(b, corpus.Warp(), budgetedOpts()) }

// The _Warm variants report how much of a repeat run the persistent verdict
// cache absorbs (check-ms should collapse, verdict-cache-hit-pct > 90).
func BenchmarkTable1_E107_Warm(b *testing.B)   { benchAppWarm(b, corpus.E107()) }
func BenchmarkTable1_EVE_Warm(b *testing.B)    { benchAppWarm(b, corpus.EVE()) }
func BenchmarkTable1_Tiger_Warm(b *testing.B)  { benchAppWarm(b, corpus.Tiger()) }
func BenchmarkTable1_Utopia_Warm(b *testing.B) { benchAppWarm(b, corpus.Utopia()) }
func BenchmarkTable1_Warp_Warm(b *testing.B)   { benchAppWarm(b, corpus.Warp()) }

func BenchmarkTable1_E107_Parallel(b *testing.B)   { benchAppOpts(b, corpus.E107(), parallelOpts()) }
func BenchmarkTable1_EVE_Parallel(b *testing.B)    { benchAppOpts(b, corpus.EVE(), parallelOpts()) }
func BenchmarkTable1_Tiger_Parallel(b *testing.B)  { benchAppOpts(b, corpus.Tiger(), parallelOpts()) }
func BenchmarkTable1_Utopia_Parallel(b *testing.B) { benchAppOpts(b, corpus.Utopia(), parallelOpts()) }
func BenchmarkTable1_Warp_Parallel(b *testing.B)   { benchAppOpts(b, corpus.Warp(), parallelOpts()) }

// ---- Figure 2 / Figure 4: the running example -------------------------------

const fig2Page = `<?php
isset($_GET['userid']) ?
    $userid = $_GET['userid'] : $userid = '';
if ($userid == '') { exit; }
if (!eregi('[0-9]+', $userid)) { exit; }
$getuser = mysql_query("SELECT * FROM unp_user WHERE userid='$userid'");
`

// BenchmarkFig2_UnanchoredRegexVuln runs the full pipeline on the paper's
// Figure 2 and asserts the vulnerability is found each iteration.
func BenchmarkFig2_UnanchoredRegexVuln(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.AnalyzeApp(
			analysis.NewMapResolver(map[string]string{"members.php": fig2Page}),
			[]string{"members.php"}, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Verified() || !res.Findings[0].Direct() {
			b.Fatal("Figure 2 vulnerability not reported")
		}
	}
}

// BenchmarkFig4_QueryGrammar measures phase 1 alone — producing the Figure 4
// annotated query grammar — and reports its size.
func BenchmarkFig4_QueryGrammar(b *testing.B) {
	var v, r int
	for i := 0; i < b.N; i++ {
		res, err := analysis.Analyze(
			analysis.NewMapResolver(map[string]string{"members.php": fig2Page}),
			"members.php", analysis.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Hotspots) != 1 {
			b.Fatal("hotspot missing")
		}
		sub, _ := res.G.Extract(res.Hotspots[0].Root)
		v, r = sub.NumNTs(), sub.NumProds()
	}
	b.ReportMetric(float64(v), "grammar-V")
	b.ReportMetric(float64(r), "grammar-R")
}

// ---- Figure 5: dataflow-reflecting grammar ----------------------------------

func BenchmarkFig5_DataflowGrammar(b *testing.B) {
	src := `<?php
$x = $_GET['u'];
if ($a) { $x = $x . "s"; } else { $x = $x . "s"; }
$z = $x;
mysql_query($z);
`
	for i := 0; i < b.N; i++ {
		res, err := analysis.Analyze(
			analysis.NewMapResolver(map[string]string{"f5.php": src}), "f5.php", analysis.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.G.DerivesString(res.Hotspots[0].Root, "us") {
			b.Fatal("dataflow grammar wrong")
		}
	}
}

// ---- Figure 6: the str_replace("''","'") transducer ---------------------------

func BenchmarkFig6_StrReplaceFST(b *testing.B) {
	inputs := []string{"it''s", "''''", "plain", "a''b''c''d"}
	for i := 0; i < b.N; i++ {
		t := fst.SQLQuoteUnescape()
		for _, in := range inputs {
			if _, ok := t.Apply(in); !ok {
				b.Fatal("transducer rejected input")
			}
		}
	}
}

// ---- Figure 7: taint-propagating CFG ∩ FSA -----------------------------------

func fig7Grammar() (*grammar.Grammar, grammar.Sym) {
	g := grammar.New()
	q := g.NewNT("query")
	u := g.NewNT("userid")
	g.AddLabel(u, grammar.Direct)
	sig := g.NewNT("sigma")
	g.Add(sig)
	for c := 0; c < 256; c++ {
		g.Add(sig, grammar.T(byte(c)), sig)
	}
	g.Add(u, sig)
	rhs := grammar.TermString("SELECT * FROM t WHERE id='")
	rhs = append(rhs, u, grammar.T('\''))
	g.Add(q, rhs...)
	g.SetStart(q)
	return g, u
}

func BenchmarkFig7_IntersectTaint(b *testing.B) {
	re, err := rx.Parse("[0-9]+", true)
	if err != nil {
		b.Fatal(err)
	}
	dfa := re.MatchDFA()
	for i := 0; i < b.N; i++ {
		g, u := fig7Grammar()
		root, ok := grammar.IntersectInto(g, u, dfa)
		if !ok {
			b.Fatal("intersection empty")
		}
		if !g.HasLabel(root, grammar.Direct) {
			b.Fatal("taint lost (Theorem 3.1)")
		}
	}
}

// ---- Figure 8: explode ---------------------------------------------------------

func BenchmarkFig8_Explode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := grammar.New()
		s := g.NewNT("S")
		g.AddString(s, "a,b,c")
		g.AddString(s, "x,,y")
		root, ok := fst.ImageInto(g, s, fst.Substr(), nil)
		if !ok {
			b.Fatal("explode image empty")
		}
		for _, piece := range []string{"a", "b", "c", "x", "y", ""} {
			if !g.DerivesString(root, piece) {
				b.Fatalf("piece %q missing", piece)
			}
		}
	}
}

// ---- Figure 9: the type-conversion false positive ------------------------------

func BenchmarkFig9_FalsePositive(b *testing.B) {
	app := corpus.Utopia()
	for i := 0; i < b.N; i++ {
		res, err := core.AnalyzeApp(analysis.NewMapResolver(app.Sources),
			[]string{"shownews.php"}, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Verified() {
			b.Fatal("the Figure 9 pattern should (falsely) report")
		}
	}
}

// ---- Figure 10: the indirect report ---------------------------------------------

func BenchmarkFig10_IndirectReport(b *testing.B) {
	app := corpus.Utopia()
	for i := 0; i < b.N; i++ {
		res, err := core.AnalyzeApp(analysis.NewMapResolver(app.Sources),
			[]string{"postnews.php"}, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.IndirectFindings() != 1 {
			b.Fatalf("want exactly one indirect finding, got %d", res.IndirectFindings())
		}
	}
}

// ---- Ablation A: versus the binary taint baseline --------------------------------

// BenchmarkAblation_TaintBaseline runs the taint baseline over Utopia and
// reports how its verdicts differ from the grammar-based tool: the baseline
// flags the guarded-but-safe pages (extra false positives) and cannot
// separate the Figure 9 pattern either.
func BenchmarkAblation_TaintBaseline(b *testing.B) {
	app := corpus.Utopia()
	var baseline *taintcheck.Result
	for i := 0; i < b.N; i++ {
		res, err := taintcheck.Check(analysis.NewMapResolver(app.Sources), app.Entries)
		if err != nil {
			b.Fatal(err)
		}
		baseline = res
	}
	b.ReportMetric(float64(len(baseline.Findings)), "baseline-findings")
}

// ---- Ablation B: regex-guard refinement off ---------------------------------------

func BenchmarkAblation_NoRegexRefinement(b *testing.B) {
	app := corpus.Warp() // fully safe: every extra finding is a false positive
	var with, without int
	for i := 0; i < b.N; i++ {
		resOn, err := core.AnalyzeApp(analysis.NewMapResolver(app.Sources), app.Entries, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		opts := core.Options{}
		opts.Analysis.DisableGuardRefinement = true
		resOff, err := core.AnalyzeApp(analysis.NewMapResolver(app.Sources), app.Entries, opts)
		if err != nil {
			b.Fatal(err)
		}
		with, without = len(resOn.Findings), len(resOff.Findings)
	}
	if with != 0 {
		b.Fatal("refined run should verify Warp")
	}
	if without == 0 {
		b.Fatal("unrefined run should produce false positives")
	}
	b.ReportMetric(float64(with), "fp-with-refinement")
	b.ReportMetric(float64(without), "fp-without-refinement")
}

// ---- Ablation C: replacement-chain blowup (§5.3) -----------------------------------

// BenchmarkAblation_ReplaceChainBlowup measures grammar growth as
// replacement operations chain, on a bounded base language so every depth
// terminates: the per-stage multiplication the paper describes for Tiger.
func BenchmarkAblation_ReplaceChainBlowup(b *testing.B) {
	for depth := 0; depth <= 3; depth++ {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			var prods int
			for i := 0; i < b.N; i++ {
				g := grammar.New()
				s := g.NewNT("S")
				// Bounded base: all strings over a tiny alphabet, length ≤ 6.
				cur := s
				for l := 0; l < 6; l++ {
					next := g.NewNT("")
					g.Add(next)
					for _, c := range []byte{'a', 'b', '[', ']', ':', ')'} {
						g.Add(next, grammar.T(c), cur)
					}
					g.Add(cur)
					cur = next
				}
				root := cur
				patterns := []string{"[b]", ":)", "[i]"}
				ok := true
				for d := 0; d < depth; d++ {
					root, ok = fst.ImageInto(g, root, fst.ReplaceAllString(patterns[d%len(patterns)], []byte("<x>")), nil)
					if !ok {
						b.Fatal("image empty")
					}
				}
				sub, _ := g.Extract(root)
				prods = sub.NumProds()
			}
			b.ReportMetric(float64(prods), "grammar-R")
		})
	}
}

// ---- Scaling: check time vs grammar size (§5.3) --------------------------------------

// BenchmarkScaling_CheckVsGrammarSize verifies the paper's observation that
// policy checking stays cheap as the query grammar grows: it checks
// synthetic quoted-literal grammars of increasing size.
func BenchmarkScaling_CheckVsGrammarSize(b *testing.B) {
	for _, branches := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("alts=%d", branches), func(b *testing.B) {
			g := grammar.New()
			q := g.NewNT("query")
			x := g.NewNT("X")
			g.AddLabel(x, grammar.Direct)
			for i := 0; i < branches; i++ {
				g.AddString(x, fmt.Sprintf("value%04d", i))
			}
			rhs := grammar.TermString("SELECT * FROM t WHERE a='")
			rhs = append(rhs, x, grammar.T('\''))
			g.Add(q, rhs...)
			g.SetStart(q)
			checker := policy.New()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := checker.CheckHotspot(g, q)
				if !res.Verified {
					b.Fatal("literal values should verify")
				}
			}
			b.ReportMetric(float64(g.NumProds()), "grammar-R")
		})
	}
}

// BenchmarkScaling_WitnessVsAlternatives times witness extraction — the
// Figure 7 intersection plus the shortest-witness walk — from a labeled
// nonterminal with k alternatives inside a quoted query. Every alternative
// meets the odd-quotes automaton, so each intersection item collects about
// k productions and per-item production dedup decides the growth in k.
// Not part of `make bench` (it runs BenchmarkTable1 only).
func BenchmarkScaling_WitnessVsAlternatives(b *testing.B) {
	var odd *automata.DFA
	for _, ca := range policy.CheckAutomata() {
		if ca.Name == "odd-quotes" {
			odd = ca.DFA
		}
	}
	for _, k := range []int{64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("alts=%d", k), func(b *testing.B) {
			g := grammar.New()
			q := g.NewNT("query")
			x := g.NewNT("X")
			g.AddLabel(x, grammar.Direct)
			for i := 0; i < k; i++ {
				g.AddString(x, fmt.Sprintf("v'%04d", i))
			}
			rhs := grammar.TermString("SELECT * FROM t WHERE a='")
			rhs = append(rhs, x, grammar.T('\''))
			g.Add(q, rhs...)
			g.SetStart(q)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if w, ok := grammar.IntersectWitness(g, x, odd); !ok || w != "v'0000" {
					b.Fatalf("witness %q, %t; want \"v'0000\"", w, ok)
				}
			}
			b.ReportMetric(float64(g.NumProds()), "grammar-R")
		})
	}
}

// ---- Extension: cross-site scripting (paper §7 future work) -------------------

// BenchmarkXSS_ReflectedAudit runs the XSS checker over a page with one
// reflected flow and one properly encoded flow.
func BenchmarkXSS_ReflectedAudit(b *testing.B) {
	// The encoded flow comes first: a raw flow earlier in the page would
	// poison the HTML context of everything after it (the checker models
	// contexts across echo statements).
	src := `<?php
echo '<h1>Search</h1>';
echo '<p>Safely: ' . htmlspecialchars($_GET['q2']) . '</p>';
echo '<p>You searched for ' . $_GET['q'] . '</p>';
`
	for i := 0; i < b.N; i++ {
		findings, err := xss.Audit(
			analysis.NewMapResolver(map[string]string{"s.php": src}),
			[]string{"s.php"}, analysis.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(findings) != 1 {
			b.Fatalf("want 1 finding, got %d", len(findings))
		}
	}
}

// ---- Ablation D: backward slicing to sinks (§5.3 / §7 future work) -----------

// BenchmarkAblation_BackwardSlicing measures the paper's proposed
// backward-dataflow improvement on a Tiger-shaped page: replacement chains
// on the display path, a simple query on the database path.
func BenchmarkAblation_BackwardSlicing(b *testing.B) {
	src := `<?php
$body = $_POST['body'];
$body = str_replace('[b]', '<b>', $body);
$body = str_replace(':)', '<img src="s.png">', $body);
echo $body;
mysql_query("SELECT * FROM t WHERE id=" . (int)$_GET['id']);
`
	for _, sliced := range []bool{false, true} {
		name := "eager"
		if sliced {
			name = "sliced"
		}
		b.Run(name, func(b *testing.B) {
			var prods, skipped int
			for i := 0; i < b.N; i++ {
				res, err := analysis.Analyze(
					analysis.NewMapResolver(map[string]string{"p.php": src}),
					"p.php", analysis.Options{SliceToSinks: sliced})
				if err != nil {
					b.Fatal(err)
				}
				prods, skipped = res.NumProds, res.SlicedOps
			}
			b.ReportMetric(float64(prods), "grammar-R")
			b.ReportMetric(float64(skipped), "ops-sliced")
		})
	}
}

// ---- Parallel page analysis (§5.3: "concurrent executions ... could
// improve the performance dramatically") --------------------------------------

func BenchmarkParallelAnalysis(b *testing.B) {
	app := corpus.E107()
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.AnalyzeApp(analysis.NewMapResolver(app.Sources), app.Entries,
					core.Options{Parallel: workers})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Findings) != 5 {
					b.Fatalf("findings = %d", len(res.Findings))
				}
			}
		})
	}
}

// ---- Ablation E: relation-based cascade vs the paper's reference
// constructions -----------------------------------------------------------------

// BenchmarkAblation_CascadeImplementation compares the default policy
// cascade (one relation fixpoint per check DFA, context dataflow) against
// the paper's per-nonterminal marker/intersection constructions on the
// Tiger subject — the two are differentially tested for agreement, so this
// measures pure implementation cost.
func BenchmarkAblation_CascadeImplementation(b *testing.B) {
	app := corpus.Tiger()
	ar, err := analysis.Analyze(analysis.NewMapResolver(app.Sources), "forum.php", analysis.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, marker := range []bool{false, true} {
		name := "relations"
		if marker {
			name = "marker-reference"
		}
		b.Run(name, func(b *testing.B) {
			checker := policy.New()
			checker.UseMarkerConstruction = marker
			for i := 0; i < b.N; i++ {
				for _, h := range ar.Hotspots {
					res := checker.CheckHotspot(ar.G, h.Root)
					if !res.Verified {
						b.Fatal("forum page should verify")
					}
				}
			}
		})
	}
}

// ---- Era configuration: magic_quotes_gpc ---------------------------------------

// BenchmarkMagicQuotes measures analysis under magic_quotes_gpc=On and
// asserts its two-sided verdict: quoted contexts verify, unquoted numeric
// contexts still report.
func BenchmarkMagicQuotes(b *testing.B) {
	quoted := `<?php mysql_query("SELECT * FROM t WHERE a='" . $_GET['v'] . "'");`
	numeric := `<?php mysql_query("SELECT * FROM t WHERE id=" . $_GET['id']);`
	opts := core.Options{}
	opts.Analysis.MagicQuotes = true
	for i := 0; i < b.N; i++ {
		rq, err := core.AnalyzeApp(analysis.NewMapResolver(map[string]string{"p.php": quoted}),
			[]string{"p.php"}, opts)
		if err != nil {
			b.Fatal(err)
		}
		rn, err := core.AnalyzeApp(analysis.NewMapResolver(map[string]string{"p.php": numeric}),
			[]string{"p.php"}, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !rq.Verified() || rn.Verified() {
			b.Fatal("magic-quotes verdicts wrong")
		}
	}
}
