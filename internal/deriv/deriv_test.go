package deriv

import (
	"testing"

	"sqlciv/internal/grammar"
	"sqlciv/internal/sqlgram"
)

// buildQueryGrammar builds a generated-style grammar:
// query -> "SELECT * FROM t WHERE id='" X "'" ; X -> digits
func buildQueryGrammar(xRules func(g *grammar.Grammar, x grammar.Sym)) (*grammar.Grammar, grammar.Sym, grammar.Sym) {
	g := grammar.New()
	q := g.NewNT("query")
	x := g.NewNT("X")
	g.AddLabel(x, grammar.Direct)
	rhs := grammar.TermString("SELECT * FROM t WHERE id='")
	rhs = append(rhs, x)
	rhs = append(rhs, grammar.T('\''))
	g.Add(q, rhs...)
	xRules(g, x)
	g.SetStart(q)
	return g, q, x
}

func TestDerivableSafeLiteral(t *testing.T) {
	sql := sqlgram.Get()
	g, q, _ := buildQueryGrammar(func(g *grammar.Grammar, x grammar.Sym) {
		g.AddString(x, "42")
		g.AddString(x, "hello")
	})
	c := New(sql.Rec)
	tgt, ok := c.Derivable(g, q, []grammar.Sym{sql.Start})
	if !ok {
		t.Fatal("plain literal content should be derivable")
	}
	if tgt != sql.Start {
		t.Fatalf("root mapped to %v", sql.G.Name(tgt))
	}
}

func TestNotDerivableQuoteEscape(t *testing.T) {
	sql := sqlgram.Get()
	g, q, _ := buildQueryGrammar(func(g *grammar.Grammar, x grammar.Sym) {
		g.AddString(x, "1'; DROP TABLE t; --")
	})
	c := New(sql.Rec)
	if _, ok := c.Derivable(g, q, []grammar.Sym{sql.Start}); ok {
		t.Fatal("attack content must not be derivable")
	}
}

func TestDerivableRecursiveValueList(t *testing.T) {
	// query -> "SELECT * FROM t WHERE id IN (" L ")" ; L -> 1 | 1, L
	// The labeled recursive L maps onto the reference ValueList.
	sql := sqlgram.Get()
	g := grammar.New()
	q := g.NewNT("query")
	l := g.NewNT("L")
	g.AddLabel(l, grammar.Direct)
	rhs := grammar.TermString("SELECT * FROM t WHERE id IN (")
	rhs = append(rhs, l, grammar.T(')'))
	g.Add(q, rhs...)
	g.AddString(l, "1")
	lrhs := grammar.TermString("1, ")
	g.Add(l, append(lrhs, l)...)
	c := New(sql.Rec)
	if _, ok := c.Derivable(g, q, []grammar.Sym{sql.Start}); !ok {
		t.Fatal("recursive IN-list should be derivable")
	}
}

func TestNotDerivableSigmaStar(t *testing.T) {
	// X -> any byte string: nothing in the reference grammar covers Σ* in
	// literal position when unquoted.
	sql := sqlgram.Get()
	g := grammar.New()
	q := g.NewNT("query")
	x := g.NewNT("X")
	g.AddLabel(x, grammar.Direct)
	rhs := grammar.TermString("SELECT * FROM t WHERE id=")
	g.Add(q, append(rhs, x)...)
	g.Add(x)
	for c := 0; c < 256; c++ {
		g.Add(x, grammar.T(byte(c)), x)
	}
	c := New(sql.Rec)
	if _, ok := c.Derivable(g, q, []grammar.Sym{sql.Start}); ok {
		t.Fatal("sigma* in unquoted position must not be derivable")
	}
}

func TestDerivableNumericPosition(t *testing.T) {
	// Unquoted numeric position with digit-only recursion: X maps to
	// Digits / NumLit.
	sql := sqlgram.Get()
	g := grammar.New()
	q := g.NewNT("query")
	x := g.NewNT("X")
	g.AddLabel(x, grammar.Direct)
	rhs := grammar.TermString("SELECT * FROM t WHERE id=")
	g.Add(q, append(rhs, x)...)
	g.AddString(x, "7")
	g.Add(x, grammar.T('7'), x)
	c := New(sql.Rec)
	if _, ok := c.Derivable(g, q, []grammar.Sym{sql.Start}); !ok {
		t.Fatal("digit recursion in numeric position should be derivable")
	}
}

func TestBudgetExhaustionIsConservative(t *testing.T) {
	sql := sqlgram.Get()
	g, q, _ := buildQueryGrammar(func(g *grammar.Grammar, x grammar.Sym) {
		g.AddString(x, "42")
	})
	c := New(sql.Rec)
	c.MaxParses = 1
	if _, ok := c.Derivable(g, q, []grammar.Sym{sql.Start}); ok {
		t.Fatal("budget exhaustion must answer not-derivable")
	}
}

func TestFlattenCapIsConservative(t *testing.T) {
	sql := sqlgram.Get()
	g, q, _ := buildQueryGrammar(func(g *grammar.Grammar, x grammar.Sym) {
		g.AddString(x, "42")
	})
	c := New(sql.Rec)
	c.MaxFormLen = 3
	if _, ok := c.Derivable(g, q, []grammar.Sym{sql.Start}); ok {
		t.Fatal("flatten cap must answer not-derivable")
	}
}

func TestDerivabilityImpliesMembership(t *testing.T) {
	// Lemma 3.3 spot-check: when derivable, the generated strings really
	// are reference queries.
	sql := sqlgram.Get()
	g, q, _ := buildQueryGrammar(func(g *grammar.Grammar, x grammar.Sym) {
		g.AddString(x, "abc")
	})
	c := New(sql.Rec)
	if _, ok := c.Derivable(g, q, []grammar.Sym{sql.Start}); !ok {
		t.Fatal("should be derivable")
	}
	w, _ := g.WitnessString(q)
	if !sql.ParsesQuery(w) {
		t.Fatalf("derivable grammar produced a non-query %q", w)
	}
}

func TestTerminalCandidate(t *testing.T) {
	// A nonterminal deriving exactly one byte can map to that terminal.
	sql := sqlgram.Get()
	g := grammar.New()
	q := g.NewNT("query")
	x := g.NewNT("X")
	g.AddLabel(x, grammar.Direct)
	g.AddString(x, "7")
	rhs := grammar.TermString("SELECT * FROM t WHERE id=4")
	g.Add(q, append(rhs, x)...)
	c := New(sql.Rec)
	if _, ok := c.Derivable(g, q, []grammar.Sym{sql.Start}); !ok {
		t.Fatal("digit suffix should be derivable (47 is a number)")
	}
}

func TestMultipleVariablesInteract(t *testing.T) {
	// Two labeled nonterminals in one query: both must map consistently.
	sql := sqlgram.Get()
	g := grammar.New()
	q := g.NewNT("query")
	a := g.NewNT("A")
	b := g.NewNT("B")
	g.AddLabel(a, grammar.Direct)
	g.AddLabel(b, grammar.Direct)
	g.AddString(a, "alpha")
	g.AddString(b, "42")
	rhs := grammar.TermString("SELECT * FROM t WHERE a='")
	rhs = append(rhs, a)
	rhs = append(rhs, grammar.TermString("' AND b=")...)
	rhs = append(rhs, b)
	g.Add(q, rhs...)
	c := New(sql.Rec)
	if _, ok := c.Derivable(g, q, []grammar.Sym{sql.Start}); !ok {
		t.Fatal("two-variable query should be derivable")
	}
}

func TestTargetRestriction(t *testing.T) {
	// Restricting the root target to a non-matching nonterminal fails.
	sql := sqlgram.Get()
	g := grammar.New()
	q := g.NewNT("query")
	g.AddString(q, "SELECT * FROM t")
	c := New(sql.Rec)
	if _, ok := c.Derivable(g, q, []grammar.Sym{sql.NumLit}); ok {
		t.Fatal("a full query cannot map to NumLit")
	}
	if tgt, ok := c.Derivable(g, q, []grammar.Sym{sql.Start}); !ok || tgt != sql.Start {
		t.Fatal("full query should map to the start symbol")
	}
}
