package grammar

import (
	"context"
	"math/rand"
	"testing"

	"sqlciv/internal/budget"
)

// randomLabeledGrammar is randomGrammar plus random taint labels and names
// on some nonterminals and, sometimes, an unproductive appendage — the
// inputs CompactSlice must preserve (labels, names, per-nonterminal
// languages) or trim (unproductive productions).
func randomLabeledGrammar(r *rand.Rand) (*Grammar, Sym) {
	g, s := randomGrammar(r)
	names := []string{"", "_GET[id]", "tbl", "x"}
	for i := 0; i < g.NumNTs(); i++ {
		nt := Sym(NumTerminals + i)
		if r.Intn(3) == 0 {
			g.SetLabel(nt, Label(1+r.Intn(3)))
			g.names[i] = names[r.Intn(len(names))]
		}
	}
	if r.Intn(2) == 0 {
		// Unproductive appendage: dead derives only itself, and the root
		// gains a production that can never complete.
		dead := g.NewNT("dead")
		g.Add(dead, dead)
		g.Add(s, T('a'), dead)
	}
	return g, s
}

// shortStrings enumerates every string of length ≤ 3 over the test alphabet.
func shortStrings() []string {
	var all []string
	var gen func(prefix string)
	gen = func(prefix string) {
		if len(prefix) > 3 {
			return
		}
		all = append(all, prefix)
		for _, c := range "ab'" {
			gen(prefix + string(c))
		}
	}
	gen("")
	return all
}

// TestCompactPreservesLanguage: membership from the root and from every
// surviving labeled nonterminal is unchanged, brute-forced over short
// strings; eliminated labeled nonterminals must have been unproductive.
func TestCompactPreservesLanguage(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	all := shortStrings()
	for trial := 0; trial < 120; trial++ {
		g, s := randomLabeledGrammar(r)
		cg, _ := CompactSlice(g, s, nil)
		rec := NewRecognizer(g)
		crec := NewRecognizer(cg.G)
		for _, w := range all {
			if got, want := crec.RecognizeString(cg.Root, w), rec.RecognizeString(s, w); got != want {
				t.Fatalf("trial %d: compacted membership(%q)=%v, want %v\noriginal:\n%s\ncompacted:\n%s",
					trial, w, got, want, g.String(), cg.G.String())
			}
		}
		minLens := g.MinLens()
		for _, x := range g.LabeledNTs() {
			cx, ok := cg.Fwd[x]
			if !ok {
				if minLens[g.ntIndex(x)] >= 0 && g.Reachable(s)[g.ntIndex(x)] {
					t.Fatalf("trial %d: productive labeled %s dropped", trial, g.Name(x))
				}
				continue
			}
			for _, w := range all {
				if got, want := crec.RecognizeString(cx, w), rec.RecognizeString(x, w); got != want {
					t.Fatalf("trial %d: labeled %s membership(%q)=%v, want %v", trial, g.Name(x), w, got, want)
				}
			}
		}
	}
}

// TestCompactEnumerateAgrees cross-checks with Enumerate when the bounded
// language is small enough to enumerate exhaustively.
func TestCompactEnumerateAgrees(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	for trial := 0; trial < 60; trial++ {
		g, s := randomLabeledGrammar(r)
		cg, _ := CompactSlice(g, s, nil)
		words := g.Enumerate(s, 4, 500)
		cwords := cg.G.Enumerate(cg.Root, 4, 500)
		if len(words) >= 500 || len(cwords) >= 500 {
			continue // truncated enumeration is not set-comparable
		}
		if len(words) != len(cwords) {
			t.Fatalf("trial %d: %d words vs %d compacted", trial, len(words), len(cwords))
		}
		for i := range words {
			if words[i] != cwords[i] {
				t.Fatalf("trial %d: word %d: %q vs %q", trial, i, words[i], cwords[i])
			}
		}
	}
}

// TestCompactPreservesLabelsAndNames: surviving nonterminals keep their
// label and raw name — both surface in reports and in the fingerprint.
func TestCompactPreservesLabelsAndNames(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	for trial := 0; trial < 120; trial++ {
		g, s := randomLabeledGrammar(r)
		cg, _ := CompactSlice(g, s, nil)
		for old, nn := range cg.Fwd {
			if g.LabelOf(old) != cg.G.LabelOf(nn) {
				t.Fatalf("trial %d: label of %s changed: %v -> %v", trial, g.Name(old), g.LabelOf(old), cg.G.LabelOf(nn))
			}
			if g.RawName(old) != cg.G.RawName(nn) {
				t.Fatalf("trial %d: name of %s changed: %q -> %q", trial, g.Name(old), g.RawName(old), cg.G.RawName(nn))
			}
		}
	}
}

// TestCompactAlphaInvariant: α-renaming nonterminals and permuting
// production order must not change the compacted fingerprint: equal slices
// compact to one canonical form regardless of construction order.
func TestCompactAlphaInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(89))
	for trial := 0; trial < 80; trial++ {
		g, s := randomLabeledGrammar(r)
		perm := rand.New(rand.NewSource(int64(trial)))
		pg, ps := permutedGrammar(g, s, perm)
		cg, _ := CompactSlice(g, s, nil)
		pcg, _ := CompactSlice(pg, ps, nil)
		if cg.G.Fingerprint(cg.Top) != pcg.G.Fingerprint(pcg.Top) {
			t.Fatalf("trial %d: compacted fingerprint not α/permutation-invariant\noriginal:\n%s\npermuted input compacts to:\n%s",
				trial, cg.G.String(), pcg.G.String())
		}
	}
}

// permutedGrammar returns an α-renamed, production-permuted copy of g.
func permutedGrammar(g *Grammar, root Sym, r *rand.Rand) (*Grammar, Sym) {
	n := g.NumNTs()
	perm := r.Perm(n)
	out := New()
	back := make([]Sym, n) // old index -> new sym
	for range perm {
		out.NewNT("")
	}
	for newIdx, oldIdx := range invertPerm(perm) {
		old := Sym(NumTerminals + oldIdx)
		nn := Sym(NumTerminals + newIdx)
		out.names[newIdx] = g.RawName(old)
		out.labels[newIdx] = g.LabelOf(old)
		back[oldIdx] = nn
	}
	for oldIdx := 0; oldIdx < n; oldIdx++ {
		old := Sym(NumTerminals + oldIdx)
		order := r.Perm(g.NumProdsOf(old))
		for _, pi := range order {
			rhs := g.Rhs(old, pi)
			nr := make([]Sym, len(rhs))
			for k, s := range rhs {
				if IsTerminal(s) {
					nr[k] = s
				} else {
					nr[k] = back[int(s)-NumTerminals]
				}
			}
			out.Add(back[oldIdx], nr...)
		}
	}
	nroot := back[int(root)-NumTerminals]
	out.SetStart(nroot)
	return out, nroot
}

// invertPerm maps new index -> old index given old -> new positions.
func invertPerm(perm []int) []int {
	inv := make([]int, len(perm))
	for oldIdx, newIdx := range perm {
		inv[newIdx] = oldIdx
	}
	return inv
}

// TestCompactCollapsesChains: a unit/terminal chain packs into a single
// byte-run production on the root.
func TestCompactCollapsesChains(t *testing.T) {
	g := New()
	a := g.NewNT("a")
	bb := g.NewNT("b")
	cc := g.NewNT("c")
	dd := g.NewNT("d")
	g.Add(a, bb)                  // unit
	g.Add(bb, T('S'), T('E'), cc) // chain with terminals
	g.Add(cc, dd)                 // unit
	g.Add(dd, T('L'))             // terminal leaf
	g.SetStart(a)
	cg, stats := CompactSlice(g, a, nil)
	if cg.G.NumNTs() != 1 || cg.G.NumProds() != 1 {
		t.Fatalf("chain should pack into one production, got\n%s", cg.G.String())
	}
	rhs := cg.G.Rhs(cg.Root, 0)
	if TermsToString(rhs) != "SEL" {
		t.Fatalf("packed run = %q, want SEL", TermsToString(rhs))
	}
	if stats.InlinedNTs != 3 {
		t.Fatalf("InlinedNTs = %d, want 3", stats.InlinedNTs)
	}
}

// TestCompactKeepsRecursion: a marked-subgraph cycle must not be inlined;
// the recursive structure survives with its language intact.
func TestCompactKeepsRecursion(t *testing.T) {
	g := New()
	a := g.NewNT("a")
	bb := g.NewNT("b")
	g.Add(a, T('x'), bb)
	g.Add(bb, T('y'), a) // a -> x b -> x y a -> ...: pure cycle, unproductive
	g.Add(bb, T('z'))    // ...until this escape makes it productive
	g.SetStart(a)
	cg, _ := CompactSlice(g, a, nil)
	rec := NewRecognizer(g)
	crec := NewRecognizer(cg.G)
	for _, w := range []string{"xz", "xyxz", "xyxyxz", "x", "xy", "z"} {
		if got, want := crec.RecognizeString(cg.Root, w), rec.RecognizeString(a, w); got != want {
			t.Fatalf("membership(%q)=%v, want %v\n%s", w, got, want, cg.G.String())
		}
	}
}

// TestCompactTrimsUnproductive: productions that cannot complete are
// dropped and disconnected labeled survivors stay reachable from Top.
func TestCompactTrimsUnproductive(t *testing.T) {
	g := New()
	root := g.NewNT("root")
	lab := g.NewNT("_GET[id]")
	dead := g.NewNT("dead")
	g.SetLabel(lab, Direct)
	g.Add(root, T('q'))
	g.Add(root, lab, dead) // cannot complete: dead is unproductive
	g.Add(lab, T('v'))
	g.Add(dead, dead)
	g.SetStart(root)
	cg, stats := CompactSlice(g, root, nil)
	if _, ok := cg.Fwd[dead]; ok {
		t.Fatal("unproductive nonterminal survived")
	}
	clab, ok := cg.Fwd[lab]
	if !ok {
		t.Fatal("labeled productive nonterminal dropped")
	}
	if cg.Top == cg.Root {
		t.Fatal("disconnected labeled survivor needs a synthetic top")
	}
	if !cg.G.Reachable(cg.Top)[int(clab)-NumTerminals] {
		t.Fatal("labeled survivor not reachable from Top")
	}
	if stats.DroppedProds == 0 {
		t.Fatal("expected dropped productions")
	}
}

// TestCompactMetersBudget: compaction work counts against the budget and a
// trivial allowance trips it.
func TestCompactMetersBudget(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	g, s := randomLabeledGrammar(r)
	b := budget.New(context.Background(), budget.Limits{MaxSteps: 1})
	defer func() {
		exc := budget.AsExceeded(recover())
		if exc == nil || exc.Reason != budget.ReasonSteps {
			t.Fatalf("want step-budget trip, got %v", exc)
		}
	}()
	for i := 0; i < 1_000_000; i++ {
		CompactSlice(g, s, b)
	}
	t.Fatal("budget never tripped")
}
