package policy

import (
	"strings"
	"testing"

	"sqlciv/internal/grammar"
)

// queryGrammar builds query -> prefix X suffix with X labeled direct and
// the given productions for X.
func queryGrammar(prefix, suffix string, xs ...string) (*grammar.Grammar, grammar.Sym) {
	g := grammar.New()
	q := g.NewNT("query")
	x := g.NewNT("X")
	g.AddLabel(x, grammar.Direct)
	rhs := grammar.TermString(prefix)
	rhs = append(rhs, x)
	rhs = append(rhs, grammar.TermString(suffix)...)
	g.Add(q, rhs...)
	for _, s := range xs {
		g.AddString(x, s)
	}
	g.SetStart(q)
	return g, q
}

func TestSafeQuotedLiteral(t *testing.T) {
	g, q := queryGrammar("SELECT * FROM t WHERE a='", "'", "bob", "alice", `it\'s`)
	res := New().CheckHotspot(g, q)
	if !res.Verified {
		t.Fatalf("should verify, got %v", res.Reports)
	}
	if res.LabeledNTs != 1 {
		t.Fatalf("LabeledNTs = %d", res.LabeledNTs)
	}
}

func TestCheck1OddQuotes(t *testing.T) {
	g, q := queryGrammar("SELECT * FROM t WHERE a='", "'", "x' OR 1=1 --")
	res := New().CheckHotspot(g, q)
	if res.Verified {
		t.Fatal("attack should be reported")
	}
	r := res.Reports[0]
	if r.Check != CheckUnconfinableQuotes {
		t.Fatalf("check = %v", r.Check)
	}
	if !strings.Contains(r.Witness, "'") {
		t.Fatalf("witness = %q", r.Witness)
	}
	if r.Label != grammar.Direct {
		t.Fatal("label lost")
	}
}

func TestCheck2EscapedQuotesInLiteralSafe(t *testing.T) {
	// Even counts of unescaped quotes pass check 1; check 2 must catch a
	// balanced pair escaping the literal.
	g, q := queryGrammar("SELECT * FROM t WHERE a='", "'", "x' OR b='y")
	res := New().CheckHotspot(g, q)
	if res.Verified {
		t.Fatal("balanced-quote escape should be reported")
	}
	if res.Reports[0].Check != CheckLiteralEscape {
		t.Fatalf("check = %v", res.Reports[0].Check)
	}
}

func TestCheck3Numeric(t *testing.T) {
	// Unquoted numeric position, digit-only values: safe.
	g, q := queryGrammar("SELECT * FROM t WHERE id=", "", "42", "7", "-3.5")
	res := New().CheckHotspot(g, q)
	if !res.Verified {
		t.Fatalf("numeric values should verify, got %v", res.Reports)
	}
}

func TestCheck4AttackString(t *testing.T) {
	// Unquoted, non-numeric, containing a known attack fragment.
	g, q := queryGrammar("SELECT * FROM t WHERE id=", "", "1; DROP TABLE t")
	res := New().CheckHotspot(g, q)
	if res.Verified {
		t.Fatal("piggybacked statement should be reported")
	}
	r := res.Reports[0]
	if r.Check != CheckAttackString {
		t.Fatalf("check = %v", r.Check)
	}
}

func TestCheck5DerivableIdentifierSafe(t *testing.T) {
	// Unquoted, non-numeric, no attack fragments — a column name. Check 5
	// must verify it against the SQL grammar.
	g, q := queryGrammar("SELECT * FROM t ORDER BY ", "", "name", "created")
	res := New().CheckHotspot(g, q)
	if !res.Verified {
		t.Fatalf("identifier position should verify via derivability, got %v", res.Reports)
	}
}

func TestCheck5NotDerivableReported(t *testing.T) {
	// Free-text in unquoted position that happens to avoid the attack
	// fragment list: conservatively reported by check 5.
	g, q := queryGrammar("SELECT * FROM t WHERE ", "", "anything at all")
	res := New().CheckHotspot(g, q)
	if res.Verified {
		t.Fatal("unparseable fragment should be reported")
	}
	if res.Reports[0].Check != CheckNotDerivable {
		t.Fatalf("check = %v", res.Reports[0].Check)
	}
}

func TestSigmaStarTaintedReported(t *testing.T) {
	// The classic unsanitized input: Σ* in literal position.
	g := grammar.New()
	q := g.NewNT("query")
	x := g.NewNT("X")
	g.AddLabel(x, grammar.Direct)
	sig := g.NewNT("sigma")
	g.Add(sig)
	for c := 0; c < 256; c++ {
		g.Add(sig, grammar.T(byte(c)), sig)
	}
	g.Add(x, sig)
	rhs := grammar.TermString("SELECT * FROM t WHERE a='")
	rhs = append(rhs, x, grammar.T('\''))
	g.Add(q, rhs...)
	g.SetStart(q)
	res := New().CheckHotspot(g, q)
	if res.Verified {
		t.Fatal("sigma* must be reported")
	}
	if res.Reports[0].Check != CheckUnconfinableQuotes {
		t.Fatalf("check = %v", res.Reports[0].Check)
	}
}

func TestUnlabeledGrammarVerifies(t *testing.T) {
	g := grammar.New()
	q := g.NewNT("query")
	g.AddString(q, "SELECT * FROM t")
	g.SetStart(q)
	res := New().CheckHotspot(g, q)
	if !res.Verified || res.LabeledNTs != 0 {
		t.Fatal("constant query should verify trivially")
	}
}

func TestIndirectLabelPreserved(t *testing.T) {
	g := grammar.New()
	q := g.NewNT("query")
	x := g.NewNT("X")
	g.AddLabel(x, grammar.Indirect)
	g.AddString(x, "a' b")
	rhs := grammar.TermString("SELECT * FROM t WHERE a='")
	rhs = append(rhs, x, grammar.T('\''))
	g.Add(q, rhs...)
	g.SetStart(q)
	res := New().CheckHotspot(g, q)
	if res.Verified {
		t.Fatal("should report")
	}
	if res.Reports[0].Label != grammar.Indirect {
		t.Fatal("indirect label lost")
	}
}

func TestEmptyLanguageNTSkipped(t *testing.T) {
	g := grammar.New()
	q := g.NewNT("query")
	x := g.NewNT("X")
	g.AddLabel(x, grammar.Direct)
	g.Add(x, grammar.T('a'), x) // empty language
	g.AddString(q, "SELECT 1")
	rhs := grammar.TermString("SELECT ")
	rhs = append(rhs, x)
	g.Add(q, rhs...)
	g.SetStart(q)
	res := New().CheckHotspot(g, q)
	if !res.Verified {
		t.Fatalf("empty-language NT must be skipped, got %v", res.Reports)
	}
}

func TestMultipleLabeledNTs(t *testing.T) {
	g := grammar.New()
	q := g.NewNT("query")
	safe := g.NewNT("safeX")
	bad := g.NewNT("badX")
	g.AddLabel(safe, grammar.Direct)
	g.AddLabel(bad, grammar.Direct)
	g.AddString(safe, "42")
	g.AddString(bad, "1' OR '1'='1")
	rhs := grammar.TermString("SELECT * FROM t WHERE a='")
	rhs = append(rhs, safe)
	rhs = append(rhs, grammar.TermString("' AND b='")...)
	rhs = append(rhs, bad, grammar.T('\''))
	g.Add(q, rhs...)
	g.SetStart(q)
	res := New().CheckHotspot(g, q)
	if len(res.Reports) != 1 {
		t.Fatalf("want exactly one report, got %v", res.Reports)
	}
	if res.Reports[0].Source != "badX" {
		t.Fatalf("reported %q, want badX", res.Reports[0].Source)
	}
}

func TestCheckString(t *testing.T) {
	for _, c := range []Check{CheckUnconfinableQuotes, CheckLiteralEscape, CheckAttackString, CheckNotDerivable, Check(99)} {
		if c.String() == "" {
			t.Fatal("empty check name")
		}
	}
	r := Report{Label: grammar.Direct, Check: CheckAttackString, Witness: "x"}
	if !strings.Contains(r.String(), "attack-string") {
		t.Fatal("report string wrong")
	}
}

func TestResultTiming(t *testing.T) {
	g, q := queryGrammar("SELECT * FROM t WHERE a='", "'", "v")
	res := New().CheckHotspot(g, q)
	if res.CheckTime < 0 {
		t.Fatal("negative time")
	}
}
