// Empirical soundness tests (Theorem 3.4): pages the analyzer VERIFIES must
// never render an unconfined query, for any input. We mirror each verified
// page's concrete PHP semantics in Go (render), drive it with random and
// adversarial inputs, and ask the Definition 2.2 oracle whether the
// user-controlled substring stayed syntactically confined. A single
// counterexample would disprove the verification.
package sqlciv

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"sqlciv/internal/analysis"
	"sqlciv/internal/budget"
	"sqlciv/internal/core"
	"sqlciv/internal/policy"
	"sqlciv/internal/sqlgram"
)

// phpAddslashes mirrors PHP addslashes.
func phpAddslashes(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\'', '"', '\\':
			b.WriteByte('\\')
			b.WriteByte(s[i])
		case 0:
			b.WriteString(`\0`)
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// digitsOnly mirrors an anchored ^[0-9]+$ guard: returns false when the
// page would exit.
func digitsOnly(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

type verifiedPage struct {
	name string
	src  string
	// render returns the concrete query for an input, or "" when the page
	// exits before querying. markStart/markEnd denote the user substring.
	render func(input string) (q string, start, end int)
}

var verifiedPages = []verifiedPage{
	{
		name: "addslashes-quoted",
		src: `<?php
$v = addslashes($_GET['v']);
mysql_query("SELECT * FROM t WHERE a='$v'");
`,
		render: func(in string) (string, int, int) {
			esc := phpAddslashes(in)
			prefix := "SELECT * FROM t WHERE a='"
			return prefix + esc + "'", len(prefix), len(prefix) + len(esc)
		},
	},
	{
		name: "anchored-numeric",
		src: `<?php
$id = $_GET['id'];
if (!preg_match('/^[0-9]+$/', $id)) { exit; }
mysql_query("SELECT * FROM t WHERE id=$id");
`,
		render: func(in string) (string, int, int) {
			if !digitsOnly(in) {
				return "", 0, 0
			}
			prefix := "SELECT * FROM t WHERE id="
			return prefix + in, len(prefix), len(prefix) + len(in)
		},
	},
	{
		name: "int-cast",
		src: `<?php
$id = (int)$_GET['id'];
mysql_query("SELECT * FROM t WHERE id=$id");
`,
		render: func(in string) (string, int, int) {
			// PHP (int) cast: leading integer value or 0.
			i := 0
			neg := false
			if i < len(in) && (in[i] == '-' || in[i] == '+') {
				neg = in[i] == '-'
				i++
			}
			j := i
			for j < len(in) && in[j] >= '0' && in[j] <= '9' {
				j++
			}
			val := in[i:j]
			if val == "" {
				val = "0"
				neg = false
			}
			val = strings.TrimLeft(val, "0")
			if val == "" {
				val = "0"
				neg = false
			}
			if neg {
				val = "-" + val
			}
			prefix := "SELECT * FROM t WHERE id="
			return prefix + val, len(prefix), len(prefix) + len(val)
		},
	},
}

// adversarial inputs every page gets, beyond the random ones.
var adversarial = []string{
	"", "1'; DROP TABLE t; --", `\' OR 1=1 --`, "0 OR 1=1",
	"'", `\`, `\'`, "''", "1 UNION SELECT password FROM users",
	"-1", "%27", "x\x00y", "1)); --",
}

func TestVerifiedPagesAreSound(t *testing.T) {
	sql := sqlgram.Get()
	for _, page := range verifiedPages {
		res, err := core.AnalyzeApp(
			analysis.NewMapResolver(map[string]string{"p.php": page.src}),
			[]string{"p.php"}, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", page.name, err)
		}
		if !res.Verified() {
			t.Fatalf("%s: expected VERIFIED, got %v", page.name, res.Findings)
		}
		probe := func(in string) bool {
			q, start, end := page.render(in)
			if q == "" {
				return true // page exited: no query
			}
			return sql.Confined(q, start, end)
		}
		for _, in := range adversarial {
			if !probe(in) {
				q, s, e := page.render(in)
				t.Fatalf("%s: UNSOUND — input %q renders %q with unconfined [%d:%d]",
					page.name, in, q, s, e)
			}
		}
		f := func(raw []byte) bool {
			if len(raw) > 12 {
				raw = raw[:12]
			}
			return probe(string(raw))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatalf("%s: soundness property failed: %v", page.name, err)
		}
	}
}

// TestVulnerablePagesAreReported is the completeness side: for pages where
// a concrete attack input demonstrably breaks confinement, the analyzer
// must report (no false negatives on the paper's patterns).
func TestVulnerablePagesAreReported(t *testing.T) {
	sql := sqlgram.Get()
	cases := []struct {
		name   string
		src    string
		attack string
		render func(in string) (string, int, int)
	}{
		{
			name:   "raw-quoted",
			src:    `<?php mysql_query("SELECT * FROM t WHERE a='" . $_GET['v'] . "'");`,
			attack: "1'; DROP TABLE t; --",
			render: func(in string) (string, int, int) {
				prefix := "SELECT * FROM t WHERE a='"
				return prefix + in + "'", len(prefix), len(prefix) + len(in)
			},
		},
		{
			name: "escaped-numeric-context",
			src: `<?php
$id = addslashes($_GET['id']);
mysql_query("SELECT * FROM t WHERE id=" . $id);`,
			attack: "1 OR 1=1",
			render: func(in string) (string, int, int) {
				esc := phpAddslashes(in)
				prefix := "SELECT * FROM t WHERE id="
				return prefix + esc, len(prefix), len(prefix) + len(esc)
			},
		},
	}
	for _, tc := range cases {
		// The attack truly breaks confinement…
		q, s, e := tc.render(tc.attack)
		if !sql.ParsesQuery(q) {
			t.Fatalf("%s: attack query %q does not even parse", tc.name, q)
		}
		if sql.Confined(q, s, e) {
			t.Fatalf("%s: chosen attack %q is actually confined", tc.name, tc.attack)
		}
		// …so the analyzer must report.
		res, err := core.AnalyzeApp(
			analysis.NewMapResolver(map[string]string{"p.php": tc.src}),
			[]string{"p.php"}, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Verified() {
			t.Fatalf("%s: demonstrably vulnerable page verified (unsound)", tc.name)
		}
	}
}

// TestCountedGuardKeepsLanguage: every string the guard admits is n quotes,
// which leaves the query an odd quote count, so the page must be reported
// whether n is below the old 128-copy cap or above it; a count is never cut
// down to a smaller language. A guard whose nested counts expand past the
// regex bound gets no refinement and is reported too, without expanding it.
func TestCountedGuardKeepsLanguage(t *testing.T) {
	for _, pat := range []string{`^'{127}$`, `^'{129}$`, `^(a{100}){100}$`} {
		src := `<?php $id = $_GET['id']; if (preg_match("/` + pat + `/", $id)) { mysql_query("SELECT * FROM t WHERE id=" . $id); }`
		res, err := core.AnalyzeApp(analysis.NewMapResolver(map[string]string{"p.php": src}),
			[]string{"p.php"}, core.Options{Budget: budget.Limits{Timeout: time.Minute}})
		if err != nil {
			t.Fatalf("%s: %v", pat, err)
		}
		if len(res.Findings) != 1 || res.Findings[0].Check != policy.CheckUnconfinableQuotes {
			t.Fatalf("%s: findings %v; want one %s", pat, res.Findings, policy.CheckUnconfinableQuotes)
		}
	}
}

// TestOverCapGuardRefinesNothing: ^.*a.{20}$ determinizes to 2^21+2
// states, past rx's cap, so the guard refines nothing, exactly as a guard
// whose pattern does not parse.
func TestOverCapGuardRefinesNothing(t *testing.T) {
	findings := func(pat string) string {
		src := `<?php $id = $_GET['id']; if (preg_match('/` + pat + `/', $id)) mysql_query("SELECT * FROM t WHERE id='" . $id . "'");`
		res, err := core.AnalyzeApp(analysis.NewMapResolver(map[string]string{"p.php": src}),
			[]string{"p.php"}, core.Options{Budget: budget.Limits{Timeout: time.Minute}})
		if err != nil {
			t.Fatalf("%s: %v", pat, err)
		}
		if res.DegradedPages+res.DegradedHotspots != 0 || len(res.Findings) == 0 {
			t.Fatalf("%s: %d degraded pages, %d degraded hotspots, findings %v",
				pat, res.DegradedPages, res.DegradedHotspots, res.Findings)
		}
		return fmt.Sprint(res.Findings)
	}
	if got, want := findings(`^.*a.{20}$`), findings(`^.*a.{20$`); got != want {
		t.Fatalf("over-cap guard: findings %s; unparseable guard: %s", got, want)
	}
}

// TestGuardBlowupTripsMemoryBudget: intersecting with ^.*a.{5}$'s 65-state
// DFA materializes about two million productions in phase 1, which the
// memory budget must bound, not only the items it discovers.
func TestGuardBlowupTripsMemoryBudget(t *testing.T) {
	src := `<?php $id = $_GET['id']; if (preg_match('/^.*a.{5}$/', $id)) mysql_query("SELECT * FROM t WHERE id='" . $id . "'");`
	opts := core.Options{}
	opts.Budget.MaxMemBytes = 32 << 20
	res, err := core.AnalyzeApp(analysis.NewMapResolver(map[string]string{"p.php": src}), []string{"p.php"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.DegradedPages != 1 {
		t.Fatalf("DegradedPages = %d, want 1 (degradations %v)", res.DegradedPages, res.Degradations)
	}
	requireDegradedNotVerified(t, res, budget.ReasonMemory)
}

// TestMagicQuotesSoundness: a page the analyzer verifies only under
// magic_quotes_gpc must be concretely safe when inputs are pre-escaped.
func TestMagicQuotesSoundness(t *testing.T) {
	sql := sqlgram.Get()
	src := `<?php
mysql_query("SELECT * FROM t WHERE a='" . $_GET['v'] . "'");
`
	opts := core.Options{}
	opts.Analysis.MagicQuotes = true
	res, err := core.AnalyzeApp(
		analysis.NewMapResolver(map[string]string{"p.php": src}),
		[]string{"p.php"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified() {
		t.Fatalf("quoted context under magic quotes should verify: %v", res.Findings)
	}
	render := func(in string) (string, int, int) {
		esc := phpAddslashes(in)
		prefix := "SELECT * FROM t WHERE a='"
		return prefix + esc + "'", len(prefix), len(prefix) + len(esc)
	}
	for _, in := range adversarial {
		q, s, e := render(in)
		if !sql.Confined(q, s, e) {
			t.Fatalf("UNSOUND under magic quotes: input %q renders %q", in, q)
		}
	}
	f := func(raw []byte) bool {
		if len(raw) > 10 {
			raw = raw[:10]
		}
		q, s, e := render(string(raw))
		return sql.Confined(q, s, e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatalf("magic-quotes soundness property failed: %v", err)
	}
}
