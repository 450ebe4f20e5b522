package grammar

import (
	"math/rand"
	"testing"

	"sqlciv/internal/automata"
)

// containsDFA accepts strings containing frag as a substring.
func containsDFA(frag string) *automata.DFA {
	n := automata.Concat(automata.Concat(automata.SigmaStar(), automata.FromString(frag)), automata.SigmaStar())
	return n.Determinize().Minimize()
}

func TestRelNonemptyAgainstIntersect(t *testing.T) {
	d := containsDFA("ab")
	g := New()
	yes := g.NewNT("yes")
	g.AddString(yes, "xaby")
	no := g.NewNT("no")
	g.AddString(no, "ba")
	rec := g.NewNT("rec") // (ab)* — contains "ab" unless empty
	g.Add(rec)
	g.Add(rec, T('a'), T('b'), rec)
	rels := Rels(g, d)
	if !RelNonempty(rels, d, g, yes) {
		t.Fatal("yes should intersect")
	}
	if RelNonempty(rels, d, g, no) {
		t.Fatal("no should not intersect")
	}
	if !RelNonempty(rels, d, g, rec) {
		t.Fatal("recursive should intersect")
	}
}

// TestRelsMatchIntersectionProperty cross-checks the relation answer
// against the intersection construction on random grammars and fragments.
func TestRelsMatchIntersectionProperty(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	frags := []string{"a", "ab", "'", "--", "x'y"}
	pieces := []string{"a", "b", "ab", "'", "-", "x", ""}
	for trial := 0; trial < 50; trial++ {
		g := New()
		nts := make([]Sym, 4)
		for i := range nts {
			nts[i] = g.NewNT("")
		}
		for i, nt := range nts {
			for k := 0; k < 1+r.Intn(2); k++ {
				var rhs []Sym
				for j := 0; j < r.Intn(3); j++ {
					if i > 0 && r.Intn(3) == 0 {
						rhs = append(rhs, nts[r.Intn(i)]) // acyclic refs down
					} else {
						rhs = append(rhs, TermString(pieces[r.Intn(len(pieces))])...)
					}
				}
				g.Add(nt, rhs...)
			}
		}
		d := containsDFA(frags[r.Intn(len(frags))])
		rels := Rels(g, d)
		for _, nt := range nts {
			got := RelNonempty(rels, d, g, nt)
			want := !IntersectEmpty(g, nt, d)
			if got != want {
				t.Fatalf("trial %d: relation=%v intersect=%v for\n%s", trial, got, want, g.String())
			}
		}
	}
}

func TestContextsBasic(t *testing.T) {
	// Context state of X under a "have we seen '<'" DFA.
	n := automata.NewNFA()
	seen := n.AddState()
	n.SetAccept(seen, true)
	for c := 0; c < 256; c++ {
		if byte(c) == '<' {
			n.AddEdge(n.Start(), c, seen)
		} else {
			n.AddEdge(n.Start(), c, n.Start())
		}
		n.AddEdge(seen, c, seen)
	}
	d := n.Determinize().Minimize()

	g := New()
	q := g.NewNT("q")
	before := g.NewNT("before")
	after := g.NewNT("after")
	g.AddString(before, "v")
	g.AddString(after, "w")
	rhs := []Sym{before}
	rhs = append(rhs, TermString("<tag>")...)
	rhs = append(rhs, after)
	g.Add(q, rhs...)
	g.SetStart(q)

	rels := Rels(g, d)
	ctx := Contexts(g, q, d, rels)
	bMask := ctx[int(before)-NumTerminals]
	aMask := ctx[int(after)-NumTerminals]
	// "before" occurs only at the start state; "after" only after '<' seen.
	if bMask == 0 || aMask == 0 {
		t.Fatal("context masks empty")
	}
	if bMask == aMask {
		t.Fatal("contexts should differ across the '<'")
	}
}

func TestRelsTooLargeDFA(t *testing.T) {
	// A DFA over 40 states exceeds the representation: Rels returns nil and
	// RelNonempty falls back to the intersection construction.
	d := automata.FromFunc(40, 0,
		func(s int) bool { return s == 1 },
		func(s, sym int) int { return (s + 1) % 40 })
	g := New()
	x := g.NewNT("x")
	g.AddString(x, "a")
	if rels := Rels(g, d); rels != nil {
		t.Fatal("oversized DFA should yield nil relations")
	}
	if !RelNonempty(nil, d, g, x) {
		t.Fatal("fallback should find the single-step acceptance")
	}
}

func TestRelsEmptyLanguage(t *testing.T) {
	d := containsDFA("a")
	g := New()
	bot := g.NewNT("bot")
	g.Add(bot, T('a'), bot)
	rels := Rels(g, d)
	if RelNonempty(rels, d, g, bot) {
		t.Fatal("empty language cannot intersect anything")
	}
}
