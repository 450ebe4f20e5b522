package grammar

import (
	"testing"

	"sqlciv/internal/automata"
)

// recordSubject builds a labeled grammar whose language has strings with and
// without an 'a', plus an unrelated nonterminal that holds a pure-terminal
// run, and returns it with its root.
func recordSubject() (*Grammar, Sym) {
	g := New()
	other := g.NewNT("other")
	g.AddString(other, "SELECT * FROM t")
	s := g.NewNT("S")
	x := g.NewNT("x")
	g.AddLabel(x, Direct)
	g.Add(s)
	g.Add(s, T('a'), s, T('b'))
	g.Add(s, x, s)
	g.AddString(x, "c'")
	g.Add(x, T('a'))
	return g, s
}

// hasA accepts the strings that contain an 'a'.
var hasA = automata.FromFunc(2, 0, func(s int) bool { return s == 1 }, func(s, sym int) int {
	if s == 1 || sym == 'a' {
		return 1
	}
	return 0
})

// TestRecordReplaysTheConstruction records an intersection and replays it
// into a second copy of the grammar: the copy must equal the grammar the
// construction built, numbering, labels, productions and slab size
// included, and the replayed root must be the constructed one.
func TestRecordReplaysTheConstruction(t *testing.T) {
	g, root := recordSubject()
	m := g.Mark()
	got, ok := IntersectInto(g, root, hasA)
	if !ok {
		t.Fatal("empty intersection")
	}
	rec := g.Record(m, got, ok, 1<<20)
	if rec == nil {
		t.Fatal("no record")
	}
	h, _ := recordSubject()
	replayed, ok := h.Replay(rec)
	if !ok || replayed != got {
		t.Fatalf("replay returned %d, %v; construction %d", replayed, ok, got)
	}
	if h.String() != g.String() || h.NumNTs() != g.NumNTs() || h.NumProds() != g.NumProds() || h.SlabBytes() != g.SlabBytes() {
		t.Fatalf("replayed grammar differs:\n%s\nconstructed:\n%s", h.String(), g.String())
	}
	if len(h.LabeledNTs()) <= 1 {
		t.Fatal("no construction nonterminal inherited x's label")
	}
}

// TestRecordRefusesForeignGrowth: Record encodes only self-contained
// constructions within its size limit.
func TestRecordRefusesForeignGrowth(t *testing.T) {
	g, root := recordSubject()
	m := g.Mark()
	got, ok := IntersectInto(g, root, hasA)
	if rec := g.Record(m, got, ok, 4); rec != nil {
		t.Fatal("recorded past the size limit")
	}
	g.Add(root, got) // a production of an older nonterminal
	if rec := g.Record(m, got, ok, 1<<20); rec != nil {
		t.Fatal("recorded a production of an older nonterminal")
	}

	g, root = recordSubject()
	m = g.Mark()
	nt := g.NewNT("")
	g.Add(nt, root) // mentions an older nonterminal
	if rec := g.Record(m, nt, true, 1<<20); rec != nil {
		t.Fatal("recorded a production that mentions an older nonterminal")
	}

	g, root = recordSubject()
	m = g.Mark()
	if rec := g.Record(m, root, true, 1<<20); rec != nil {
		t.Fatal("recorded an older nonterminal as the result")
	}
	if rec := g.Record(m, 0, false, 1<<20); rec == nil || rec.nts != 0 || rec.prods != 0 {
		t.Fatal("an empty construction must record as empty")
	}
}
