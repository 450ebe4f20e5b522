package sqlciv

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"sqlciv/internal/analysis"
	"sqlciv/internal/budget"
	"sqlciv/internal/core"
	"sqlciv/internal/corpus"
	"sqlciv/internal/policy"
)

// vulnApp is a minimal application with one genuine SQLCIV hotspot per
// page, cheap enough that phase 1 never trips the tight budgets aimed at
// phase 2.
func vulnApp() (map[string]string, []string) {
	sources := map[string]string{
		"a.php": `<?php $x = $_GET['a']; mysql_query("SELECT * FROM t WHERE n='$x'"); ?>`,
		"b.php": `<?php $y = $_GET['b']; mysql_query("SELECT * FROM u WHERE m='$y' AND k=2"); ?>`,
	}
	return sources, []string{"a.php", "b.php"}
}

// requireDegradedNotVerified asserts the soundness contract of every budget
// trip: the run is not reported verified, each degraded unit carries
// VerdictUnknown with the expected reason, and an analysis-incomplete
// finding surfaces the degradation.
func requireDegradedNotVerified(t *testing.T, res *core.AppResult, want budget.Reason) {
	t.Helper()
	if res.DegradedHotspots == 0 && res.DegradedPages == 0 {
		t.Fatal("expected at least one degraded unit")
	}
	if res.Verified() {
		t.Fatal("degraded run must not report verified")
	}
	for _, d := range res.Degradations {
		if d.Reason != want {
			t.Errorf("degradation reason = %v, want %v (detail: %s)", d.Reason, want, d.Detail)
		}
	}
	incomplete := 0
	for _, f := range res.Findings {
		if f.Check == policy.CheckAnalysisIncomplete {
			incomplete++
		}
	}
	if incomplete == 0 {
		t.Error("degraded run must include an analysis-incomplete finding")
	}
	for _, page := range res.Pages {
		for _, hr := range page.Hotspots {
			if hr.Policy == nil {
				continue
			}
			if hr.Policy.Verdict == policy.VerdictUnknown && hr.Policy.Degraded == nil {
				t.Error("VerdictUnknown without degradation details")
			}
			if hr.Policy.Verdict == policy.VerdictVerified && hr.Policy.Degraded != nil {
				t.Error("degraded hotspot must not be VerdictVerified")
			}
		}
	}
	if !strings.Contains(res.Summary(), "analysis incomplete") {
		t.Error("Summary must warn about incomplete analysis")
	}
}

func TestBudgetDegradesSoundly(t *testing.T) {
	sources, entries := vulnApp()

	t.Run("step-limit", func(t *testing.T) {
		opts := core.Options{}
		opts.Budget.MaxSteps = 25 // phase 1 needs ~2 steps/page; the cascade needs far more
		res, err := core.AnalyzeApp(analysis.NewMapResolver(sources), entries, opts)
		if err != nil {
			t.Fatal(err)
		}
		requireDegradedNotVerified(t, res, budget.ReasonSteps)
		if res.DegradedHotspots != 2 {
			t.Errorf("DegradedHotspots = %d, want 2", res.DegradedHotspots)
		}
	})

	t.Run("memory-limit", func(t *testing.T) {
		opts := core.Options{}
		opts.Budget.MaxMemBytes = 64 // below one intersection item
		res, err := core.AnalyzeApp(analysis.NewMapResolver(sources), entries, opts)
		if err != nil {
			t.Fatal(err)
		}
		requireDegradedNotVerified(t, res, budget.ReasonMemory)
	})

	t.Run("hotspot-deadline", func(t *testing.T) {
		// Deterministic deadline trip: the hook sleeps each hotspot past its
		// own timeout, so the first budget probe inside the check fires.
		opts := core.Options{}
		opts.Budget.HotspotTimeout = time.Millisecond
		opts.BeforeHotspotCheck = func(analysis.Hotspot) { time.Sleep(20 * time.Millisecond) }
		res, err := core.AnalyzeApp(analysis.NewMapResolver(sources), entries, opts)
		if err != nil {
			t.Fatal(err)
		}
		requireDegradedNotVerified(t, res, budget.ReasonDeadline)
	})

	t.Run("cancelled-context", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res, err := core.AnalyzeAppCtx(ctx, analysis.NewMapResolver(sources), entries, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.DegradedHotspots == 0 && res.DegradedPages == 0 {
			t.Fatal("cancelled run must degrade")
		}
		if res.Verified() {
			t.Fatal("cancelled run must not report verified")
		}
		for _, d := range res.Degradations {
			if d.Reason != budget.ReasonCancelled {
				t.Errorf("degradation reason = %v, want cancelled", d.Reason)
			}
		}
	})

	t.Run("page-step-limit", func(t *testing.T) {
		opts := core.Options{}
		opts.Budget.MaxSteps = 1 // trips inside the statement walk of phase 1
		res, err := core.AnalyzeApp(analysis.NewMapResolver(sources), entries, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.DegradedPages != 2 {
			t.Fatalf("DegradedPages = %d, want 2", res.DegradedPages)
		}
		requireDegradedNotVerified(t, res, budget.ReasonSteps)
	})
}

// TestGuardRefinementChargesPageBudget: the guard refinement materialized
// in phase-1 lowering runs the Figure 7 intersection of the guarded value's
// grammar with the pattern DFA — here ~29k work items against a walk of a
// few steps. That construction must meter against the page budget, so a
// step limit the walk alone fits in degrades the page instead of letting
// lowering run unbounded.
func TestGuardRefinementChargesPageBudget(t *testing.T) {
	const query = `mysql_query("SELECT * FROM t WHERE name='$x'");`
	sources := map[string]string{
		"guarded.php": "<?php $x = $_GET['q'];\nif (preg_match('/^[a-z0-9_]{1,24}$/', $x)) {\n" + query + "\n}\n",
		"plain.php":   "<?php $x = $_GET['q'];\n" + query + "\n",
	}
	opts := core.Options{}
	opts.Budget.MaxSteps = 1000

	// Control: the same page without the guard walks and lowers within the
	// limit.
	res, err := core.AnalyzeApp(analysis.NewMapResolver(sources), []string{"plain.php"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.DegradedPages != 0 {
		t.Fatalf("unguarded page degraded under MaxSteps=%d: %+v", opts.Budget.MaxSteps, res.Degradations)
	}

	res, err = core.AnalyzeApp(analysis.NewMapResolver(sources), []string{"guarded.php"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.DegradedPages != 1 {
		t.Fatalf("DegradedPages = %d, want the guarded page (degradations: %+v)", res.DegradedPages, res.Degradations)
	}
	requireDegradedNotVerified(t, res, budget.ReasonSteps)
}

// TestTransducerImageChargesPageBudget: str_replace lowers to the FST
// image of the value's grammar, whose item count grows with the square of
// the transducer's states (one per pattern prefix) — thousands of items for
// a long pattern against a walk of a few steps. The image must meter
// against the page budget, so a step limit the page without the call fits
// in degrades the page instead of letting lowering run unbounded.
func TestTransducerImageChargesPageBudget(t *testing.T) {
	const query = `mysql_query("SELECT * FROM t WHERE name='$x'");`
	sources := map[string]string{
		"replaced.php": "<?php $x = $_GET['q'];\n$x = str_replace('" + strings.Repeat("ab", 20) + "', 'c', $x);\n" + query + "\n",
		"plain.php":    "<?php $x = $_GET['q'];\n" + query + "\n",
	}
	opts := core.Options{}
	opts.Budget.MaxSteps = 1000

	// Control: the same page without the str_replace walks and lowers
	// within the limit.
	res, err := core.AnalyzeApp(analysis.NewMapResolver(sources), []string{"plain.php"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.DegradedPages != 0 {
		t.Fatalf("page without str_replace degraded under MaxSteps=%d: %+v", opts.Budget.MaxSteps, res.Degradations)
	}

	res, err = core.AnalyzeApp(analysis.NewMapResolver(sources), []string{"replaced.php"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.DegradedPages != 1 {
		t.Fatalf("DegradedPages = %d, want the str_replace page (degradations: %+v)", res.DegradedPages, res.Degradations)
	}
	requireDegradedNotVerified(t, res, budget.ReasonSteps)
}

// explodingPage builds the §5.3 replacement-chain blowup as a fixture: each
// round of str_replace doublings multiplies the hotspot grammar, so the
// policy cascade needs millions of work items while phase 1 stays cheap.
func explodingPage(doublings int) string {
	var b strings.Builder
	b.WriteString("<?php $x = $_GET['q'];\n")
	for i := 0; i < doublings; i++ {
		b.WriteString("$x = str_replace('a', 'aba', $x);\n")
		fmt.Fprintf(&b, "$x = str_replace('b', \"b'%d\", $x);\n", i%10)
	}
	b.WriteString("mysql_query(\"SELECT * FROM t WHERE v='$x'\");\n")
	return b.String()
}

// TestExplodingHotspotBounded is the acceptance fixture: a deliberately
// exploding hotspot (≈5.8M work items unbudgeted) must terminate at its
// configured budget with a reported VerdictUnknown while the healthy
// hotspot in the same app completes with its normal finding.
func TestExplodingHotspotBounded(t *testing.T) {
	sources := map[string]string{
		"boom.php": explodingPage(16),
		"ok.php":   `<?php $y = $_GET['b']; mysql_query("SELECT * FROM u WHERE m='$y'");`,
	}
	entries := []string{"boom.php", "ok.php"}

	opts := core.Options{}
	opts.Budget.MaxSteps = 2_000_000 // phase 1 fits; boom's cascade cannot
	opts.Budget.HotspotTimeout = time.Minute
	start := time.Now()
	res, err := core.AnalyzeApp(analysis.NewMapResolver(sources), entries, opts)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > opts.Budget.HotspotTimeout {
		t.Fatalf("run took %v, past the configured deadline", elapsed)
	}
	if res.DegradedPages != 0 || res.DegradedHotspots != 1 {
		t.Fatalf("degraded %d pages, %d hotspots; want the boom hotspot only",
			res.DegradedPages, res.DegradedHotspots)
	}
	d := res.Degradations[0]
	if d.File != "boom.php" || d.Reason != budget.ReasonSteps {
		t.Errorf("degradation = %s %v, want boom.php step-limit", d.File, d.Reason)
	}
	if len(findingsFor(res, "boom.php")) != 1 {
		t.Error("exploding hotspot must surface exactly one incomplete finding")
	}
	healthy := findingsFor(res, "ok.php")
	if len(healthy) != 1 || healthy[0].Check != policy.CheckUnconfinableQuotes {
		t.Fatalf("healthy hotspot findings = %v, want its normal odd-quotes report", healthy)
	}
}

// TestPanicIsolation proves one poisoned hotspot cannot take down the run:
// with a hook that panics for a single hotspot, that hotspot degrades to a
// reported VerdictUnknown with the panic's stack captured, every other
// hotspot completes with its normal verdict, and the worker pool neither
// deadlocks nor leaks goroutines.
func TestPanicIsolation(t *testing.T) {
	sources, entries := vulnApp()

	baseline, err := core.AnalyzeApp(analysis.NewMapResolver(sources), entries, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	opts := core.Options{ParallelHotspots: 4}
	opts.BeforeHotspotCheck = func(h analysis.Hotspot) {
		if h.File == "a.php" {
			panic("injected fault for a.php")
		}
	}
	res, err := core.AnalyzeApp(analysis.NewMapResolver(sources), entries, opts)
	if err != nil {
		t.Fatal(err)
	}

	if res.DegradedHotspots != 1 {
		t.Fatalf("DegradedHotspots = %d, want exactly the poisoned one", res.DegradedHotspots)
	}
	d := res.Degradations[0]
	if d.Reason != budget.ReasonPanic {
		t.Errorf("reason = %v, want panic", d.Reason)
	}
	if !strings.Contains(d.Detail, "injected fault") {
		t.Errorf("detail %q does not carry the panic value", d.Detail)
	}
	if !strings.Contains(d.Stack, "TestPanicIsolation") {
		t.Errorf("stack does not reach the injection site:\n%s", d.Stack)
	}

	// The healthy hotspot's verdict is unchanged from the baseline run.
	wantB := findingsFor(baseline, "b.php")
	gotB := findingsFor(res, "b.php")
	if len(wantB) == 0 || len(gotB) != len(wantB) {
		t.Fatalf("healthy hotspot findings changed: got %d, want %d", len(gotB), len(wantB))
	}
	for i := range wantB {
		if gotB[i] != wantB[i] {
			t.Errorf("healthy finding drifted:\n got %v\nwant %v", gotB[i], wantB[i])
		}
	}

	// No leaked workers: allow scheduler slack, but a stuck per-hotspot
	// goroutine would hold the semaphore forever and show up here.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Errorf("goroutines grew from %d to %d — leaked worker?", before, n)
	}
}

func findingsFor(res *core.AppResult, file string) []core.Finding {
	var out []core.Finding
	for _, f := range res.Findings {
		if f.File == file {
			out = append(out, f)
		}
	}
	return out
}

// TestGenerousBudgetsChangeNothing runs the corpus under deliberately
// generous budgets and demands byte-identical findings and summaries
// (modulo timing) versus the unbudgeted run — budgets must be observable
// only when they trip.
func TestGenerousBudgetsChangeNothing(t *testing.T) {
	for _, app := range corpus.Apps() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			plain, err := core.AnalyzeApp(analysis.NewMapResolver(app.Sources), app.Entries, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			opts := core.Options{Parallel: 4, ParallelHotspots: 4}
			opts.Budget.Timeout = 5 * time.Minute
			opts.Budget.HotspotTimeout = time.Minute
			opts.Budget.MaxSteps = 1 << 40
			opts.Budget.MaxMemBytes = 1 << 40
			budgeted, err := core.AnalyzeApp(analysis.NewMapResolver(app.Sources), app.Entries, opts)
			if err != nil {
				t.Fatal(err)
			}
			if budgeted.DegradedHotspots != 0 || budgeted.DegradedPages != 0 {
				t.Fatalf("generous budgets degraded %d hotspots, %d pages",
					budgeted.DegradedHotspots, budgeted.DegradedPages)
			}
			a := summaryTimes.ReplaceAllString(plain.Summary(), "T")
			b := summaryTimes.ReplaceAllString(budgeted.Summary(), "T")
			if a != b {
				t.Errorf("summary changed under generous budgets:\n--- plain\n%s\n--- budgeted\n%s", a, b)
			}
			if budgeted.BudgetSteps == 0 {
				t.Error("budgeted run should report step consumption")
			}
		})
	}
}
