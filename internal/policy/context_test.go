package policy

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sqlciv/internal/grammar"
)

func contexts(t *testing.T, g *grammar.Grammar, root grammar.Sym) *contextInfo {
	t.Helper()
	tab := New().tables(nil)
	rels := grammar.Rels(g, tab.oddQuotes)
	return tab.computeContexts(g, root, rels, g.MinLens(), nil, nil)
}

func TestContextLiteralDetection(t *testing.T) {
	g := grammar.New()
	q := g.NewNT("q")
	in := g.NewNT("inside")
	out := g.NewNT("outside")
	g.AddString(in, "v")
	g.AddString(out, "7")
	rhs := grammar.TermString("WHERE a='")
	rhs = append(rhs, in)
	rhs = append(rhs, grammar.TermString("' AND b=")...)
	rhs = append(rhs, out)
	g.Add(q, rhs...)
	g.SetStart(q)
	ci := contexts(t, g, q)
	if occ, lit := ci.literalOnly(in); !occ || !lit {
		t.Fatalf("inside: occurs=%v literal=%v", occ, lit)
	}
	if occ, lit := ci.literalOnly(out); !occ || lit {
		t.Fatalf("outside: occurs=%v literal=%v", occ, lit)
	}
}

func TestContextEscapedQuoteDoesNotFlip(t *testing.T) {
	g := grammar.New()
	q := g.NewNT("q")
	x := g.NewNT("x")
	g.AddString(x, "v")
	// \' before x: still outside a literal (escaped quote is a character).
	rhs := grammar.TermString(`a=\'`)
	rhs = append(rhs, x)
	g.Add(q, rhs...)
	g.SetStart(q)
	ci := contexts(t, g, q)
	if _, lit := ci.literalOnly(x); lit {
		t.Fatal("escaped quote must not open a literal")
	}
}

func TestContextUnreachableNT(t *testing.T) {
	g := grammar.New()
	q := g.NewNT("q")
	dead := g.NewNT("dead")
	g.AddString(dead, "x")
	g.AddString(q, "SELECT 1")
	g.SetStart(q)
	ci := contexts(t, g, q)
	if occ, _ := ci.literalOnly(dead); occ {
		t.Fatal("unreachable NT should not occur")
	}
}

func TestContextUnproductiveSibling(t *testing.T) {
	// X occurs only next to an unproductive NT: no complete derivation, so
	// X effectively never occurs.
	g := grammar.New()
	q := g.NewNT("q")
	x := g.NewNT("x")
	bot := g.NewNT("bot")
	g.Add(bot, grammar.T('a'), bot) // empty language
	g.AddString(x, "v")
	g.Add(q, x, bot)
	g.AddString(q, "ok")
	g.SetStart(q)
	ci := contexts(t, g, q)
	if occ, _ := ci.literalOnly(x); occ {
		t.Fatal("occurrence inside an uncompletable production should not count")
	}
}

// randomQueryGrammar builds a random grammar with labeled nonterminals in
// assorted quote contexts for the differential test.
func randomQueryGrammar(r *rand.Rand) (*grammar.Grammar, grammar.Sym) {
	g := grammar.New()
	q := g.NewNT("q")
	frags := []string{"SELECT * FROM t WHERE a=", "'", "x", "\\'", " AND b=", "''", "-- ", "1"}
	var rhs []grammar.Sym
	for i := 0; i < 2+r.Intn(4); i++ {
		rhs = append(rhs, grammar.TermString(frags[r.Intn(len(frags))])...)
		if r.Intn(2) == 0 {
			x := g.NewNT(fmt.Sprintf("X%d", i))
			g.AddLabel(x, grammar.Direct)
			for j := 0; j < 1+r.Intn(2); j++ {
				g.AddString(x, frags[r.Intn(len(frags))])
			}
			rhs = append(rhs, x)
		}
	}
	g.Add(q, rhs...)
	if r.Intn(2) == 0 {
		g.AddString(q, "SELECT 1")
	}
	g.SetStart(q)
	return g, q
}

// TestContextPassMatchesMarkerConstruction differentially tests the fast
// relation-based cascade over the compacted slice against the paper's
// reference constructions over the uncompacted one: the two checkers must
// agree on the verdict, the labeled-NT census, and every report field,
// witnesses included. Each trial runs on fresh checkers, so a repeated
// random grammar never answers from a memoized verdict.
func TestContextPassMatchesMarkerConstruction(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		g, q := randomQueryGrammar(r)
		slow := New()
		slow.UseMarkerConstruction = true
		rf := New().CheckHotspot(g, q)
		rs := slow.CheckHotspot(g, q)
		if rf.Verdict != rs.Verdict || rf.LabeledNTs != rs.LabeledNTs {
			t.Fatalf("trial %d: fast %v/%d labeled NTs, slow %v/%d labeled NTs\n%s",
				trial, rf.Verdict, rf.LabeledNTs, rs.Verdict, rs.LabeledNTs, g.String())
		}
		if !reflect.DeepEqual(rf.Reports, rs.Reports) {
			t.Fatalf("trial %d: reports diverged\nfast: %+v\nslow: %+v\n%s",
				trial, rf.Reports, rs.Reports, g.String())
		}
	}
}

func TestRecursiveGrammarContext(t *testing.T) {
	// L -> v | v , L inside quotes: all occurrences literal.
	g := grammar.New()
	q := g.NewNT("q")
	l := g.NewNT("L")
	g.AddLabel(l, grammar.Direct)
	g.AddString(l, "v")
	g.Add(l, append(grammar.TermString("v,"), l)...)
	rhs := grammar.TermString("WHERE a='")
	rhs = append(rhs, l, grammar.T('\''))
	g.Add(q, rhs...)
	g.SetStart(q)
	ci := contexts(t, g, q)
	if occ, lit := ci.literalOnly(l); !occ || !lit {
		t.Fatalf("recursive literal list: occurs=%v literal=%v", occ, lit)
	}
	// With a quote inside L's own language, later occurrences flip parity:
	// no longer literal-only.
	g2 := grammar.New()
	q2 := g2.NewNT("q")
	l2 := g2.NewNT("L")
	g2.AddLabel(l2, grammar.Direct)
	g2.AddString(l2, "v'")
	g2.Add(l2, append(grammar.TermString("v'"), l2)...)
	rhs2 := grammar.TermString("WHERE a='")
	rhs2 = append(rhs2, l2, grammar.T('\''))
	g2.Add(q2, rhs2...)
	g2.SetStart(q2)
	ci2 := contexts(t, g2, q2)
	if _, lit := ci2.literalOnly(l2); lit {
		t.Fatal("quote-bearing recursion should break literal-only")
	}
}
