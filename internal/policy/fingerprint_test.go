package policy

import (
	"testing"

	"sqlciv/internal/grammar"
)

// buildQuery constructs WHERE a='<x>' with x labeled Direct, creating the
// nonterminals in the order given by flip — flipping the creation order
// α-renames the grammar (different Sym numbering, identical structure).
func buildQuery(flip bool, xName, xBody string) (*grammar.Grammar, grammar.Sym) {
	g := grammar.New()
	var q, x grammar.Sym
	if flip {
		x = g.NewNT(xName)
		q = g.NewNT("q")
	} else {
		q = g.NewNT("q")
		x = g.NewNT(xName)
	}
	g.AddLabel(x, grammar.Direct)
	g.AddString(x, xBody)
	rhs := grammar.TermString("SELECT * FROM t WHERE a='")
	rhs = append(rhs, x, grammar.T('\''))
	g.Add(q, rhs...)
	g.SetStart(q)
	return g, q
}

func TestFingerprintAlphaInvariance(t *testing.T) {
	g1, q1 := buildQuery(false, "X", "v")
	g2, q2 := buildQuery(true, "X", "v")
	if g1.Fingerprint(q1) != g2.Fingerprint(q2) {
		t.Fatal("α-renamed grammars must share a fingerprint")
	}
}

func TestFingerprintDistinguishesStructure(t *testing.T) {
	base, broot := buildQuery(false, "X", "v")
	fp := base.Fingerprint(broot)

	// Different terminal content.
	g, q := buildQuery(false, "X", "w")
	if g.Fingerprint(q) == fp {
		t.Fatal("different terminals must change the fingerprint")
	}
	// Different source name (names surface in reports, so they are part of
	// the verdict).
	g, q = buildQuery(false, "Y", "v")
	if g.Fingerprint(q) == fp {
		t.Fatal("different raw names must change the fingerprint")
	}
	// Different label, set on a grammar already fingerprinted: the label
	// change must invalidate the memoized canonicalization.
	g, q = buildQuery(false, "X", "v")
	before := g.Fingerprint(q)
	for _, nt := range g.CanonicalOrder(q) {
		if g.LabelOf(nt) != 0 {
			g.SetLabel(nt, grammar.Indirect)
		}
	}
	if after := g.Fingerprint(q); after == before || after == fp {
		t.Fatal("different labels must change the fingerprint")
	}
	// Extra production.
	g, q = buildQuery(false, "X", "v")
	for _, nt := range g.CanonicalOrder(q) {
		if g.LabelOf(nt) != 0 {
			g.AddString(nt, "vv")
		}
	}
	if g.Fingerprint(q) == fp {
		t.Fatal("an extra production must change the fingerprint")
	}
}

func TestVerdictCacheHitOnAlphaRenamedGrammar(t *testing.T) {
	c := New()

	g1, q1 := buildQuery(false, "X", "v'") // quote inside a literal: reported
	r1 := c.CheckHotspot(g1, q1)
	if r1.Memo != ProbeMiss || r1.Disk != NotProbed {
		t.Fatalf("first check: memo %v, disk %v; want a memo miss, no disk probe", r1.Memo, r1.Disk)
	}

	g2, q2 := buildQuery(true, "X", "v'")
	r2 := c.CheckHotspot(g2, q2)
	if r2.Memo != ProbeHit {
		t.Fatalf("α-renamed recheck: memo %v, want a hit", r2.Memo)
	}
	if len(r1.Reports) != len(r2.Reports) || r1.Verified != r2.Verified {
		t.Fatalf("cached verdict differs: %v vs %v", r1, r2)
	}
	for i := range r1.Reports {
		a, b := r1.Reports[i], r2.Reports[i]
		if a.Check != b.Check || a.Label != b.Label || a.Source != b.Source || a.Witness != b.Witness {
			t.Fatalf("report %d differs: %+v vs %+v", i, a, b)
		}
	}
	if r1.Memo != ProbeMiss {
		t.Fatal("a memo hit changed the probe of the Result it copied")
	}

	// A structurally different hotspot must miss.
	g3, q3 := buildQuery(false, "X", "v")
	if r3 := c.CheckHotspot(g3, q3); r3.Memo != ProbeMiss {
		t.Fatalf("different grammar: memo %v, want a miss", r3.Memo)
	}
}
