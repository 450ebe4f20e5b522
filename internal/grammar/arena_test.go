package grammar

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// buildScripted replays a randomized construction script — NewNT, Add with
// mixed rhs, AddString with runs long enough to intern, labels — and
// returns, alongside the grammar, the productions the script added, per
// nonterminal index in insertion order. The record is built from the
// script's own arguments, never read back through the grammar, so it is an
// independent reference for the slab and intern-pool storage.
func buildScripted(seed int64) (*Grammar, Sym, [][][]Sym) {
	r := rand.New(rand.NewSource(seed))
	g := New()
	n := 3 + r.Intn(4)
	nts := make([]Sym, n)
	want := make([][][]Sym, n)
	for i := range nts {
		nts[i] = g.NewNT(fmt.Sprintf("n%d", i))
		want[i] = [][]Sym{}
	}
	g.AddLabel(nts[r.Intn(n)], Direct)
	alpha := []byte("abc'=")
	for i, nt := range nts {
		// A long literal: crosses the intern threshold, so it is routed
		// through the process-global pool.
		lit := make([]byte, 4+r.Intn(24))
		for j := range lit {
			lit[j] = alpha[r.Intn(len(alpha))]
		}
		g.AddString(nt, string(lit))
		want[i] = append(want[i], TermString(string(lit)))
		// Short and mixed productions stay in the per-grammar slab.
		for k := 0; k < 1+r.Intn(3); k++ {
			rhs := []Sym{}
			for j := 0; j < r.Intn(4); j++ {
				if r.Intn(3) == 0 {
					rhs = append(rhs, nts[r.Intn(n)])
				} else {
					rhs = append(rhs, T(alpha[r.Intn(len(alpha))]))
				}
			}
			g.Add(nt, rhs...)
			want[i] = append(want[i], rhs)
		}
		// A marker-bearing production: markers must never intern.
		g.Add(nt, T('('), MarkerSym, T(')'))
		want[i] = append(want[i], []Sym{T('('), MarkerSym, T(')')})
	}
	g.SetStart(nts[0])
	return g, nts[0], want
}

// dumpProds enumerates every production through the public accessors.
func dumpProds(g *Grammar) [][][]Sym {
	out := make([][][]Sym, g.NumNTs())
	for i := 0; i < g.NumNTs(); i++ {
		nt := Sym(NumTerminals + i)
		rows := make([][]Sym, g.NumProdsOf(nt))
		for pi := range rows {
			rows[pi] = append([]Sym{}, g.Rhs(nt, pi)...)
		}
		out[i] = rows
	}
	return out
}

// countProds is the |R| of a production record.
func countProds(prods [][][]Sym) int {
	n := 0
	for _, rows := range prods {
		n += len(rows)
	}
	return n
}

// TestArenaSliceRoundTrip: the slab-backed grammar enumerates exactly the
// productions its construction script added, in insertion order, and two
// builds from the same script share one canonical fingerprint.
func TestArenaSliceRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		g, root, want := buildScripted(seed)
		if got := dumpProds(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: productions diverged from the script\ngot:  %v\nwant: %v\n%s", seed, got, want, g)
		}
		if g.NumProds() != countProds(want) {
			t.Fatalf("seed %d: NumProds %d, script added %d", seed, g.NumProds(), countProds(want))
		}
		again, root2, _ := buildScripted(seed)
		if g.Fingerprint(root) != again.Fingerprint(root2) {
			t.Fatalf("seed %d: fingerprints diverged across identical builds", seed)
		}
	}
}

// TestArenaRoundTripSurvivesMutation: clearProds and ReplaceWithMarker — the
// two in-place mutations — leave exactly the productions the script
// predicts, for slab-resident and interned right-hand sides alike.
func TestArenaRoundTripSurvivesMutation(t *testing.T) {
	g := New()
	q := g.NewNT("q")
	x := g.NewNT("x")
	g.AddLabel(x, Direct)
	// quoted is q's right-hand side with mid between the quotes.
	quoted := func(mid Sym) []Sym {
		return append(append(TermString("SELECT a FROM t WHERE id='"), mid), T('\''))
	}
	g.Add(q, quoted(x)...)
	g.AddString(x, "longliteralvalue")
	g.Add(x, T('1'))
	g.SetStart(q)

	// The marker grammar keeps q's production with x replaced by t_X and
	// drops x's own productions (x stays a nonterminal of the extraction).
	rt := g.ReplaceWithMarker(q, x)
	wantMarker := [][][]Sym{{quoted(MarkerSym)}, {}}
	if got := dumpProds(rt); !reflect.DeepEqual(got, wantMarker) {
		t.Fatalf("marker grammar diverged from the script\ngot:  %v\nwant: %v\n%s", got, wantMarker, rt)
	}
	if rt.NumProds() != 1 {
		t.Fatalf("marker grammar NumProds = %d, want 1", rt.NumProds())
	}
	// The source grammar is untouched by the marker construction.
	wantOrig := [][][]Sym{{quoted(x)}, {TermString("longliteralvalue"), {T('1')}}}
	if got := dumpProds(g); !reflect.DeepEqual(got, wantOrig) {
		t.Fatalf("ReplaceWithMarker mutated its source\ngot:  %v\nwant: %v", got, wantOrig)
	}

	g.clearProds(x)
	wantOrig[1] = [][]Sym{}
	if got := dumpProds(g); !reflect.DeepEqual(got, wantOrig) || g.NumProds() != 1 {
		t.Fatalf("clearProds diverged from the script (NumProds %d)\ngot:  %v\nwant: %v", g.NumProds(), got, wantOrig)
	}
}

// TestCompactScratchNoLeakAcrossSessions is the pooled-scratch mutation
// test: interleaving compactions of large random grammars (which fill the
// pooled workspaces with their rows, slabs, and memo tables) with
// compactions of a fixed small grammar must leave the small result — its
// rendered productions, its stats, its fingerprint — bit-identical to the
// first run. Any stale production leaking out of a recycled workspace
// perturbs the output and fails the comparison.
func TestCompactScratchNoLeakAcrossSessions(t *testing.T) {
	small := func() (*Grammar, Sym) {
		g := New()
		q := g.NewNT("q")
		x := g.NewNT("x")
		g.AddLabel(x, Direct)
		rhs := append(TermString("a='"), x)
		rhs = append(rhs, T('\''))
		g.Add(q, rhs...)
		g.AddString(x, "value")
		g.SetStart(q)
		return g, q
	}
	g0, r0 := small()
	cg0, stats0 := CompactSlice(g0, r0, nil)
	want := cg0.G.String()
	wantFP := cg0.G.Fingerprint(cg0.Root)

	r := rand.New(rand.NewSource(99))
	for i := 0; i < 40; i++ {
		// Pollute the pool: a large random compaction session.
		big, broot, _ := buildScripted(int64(1000 + r.Intn(1<<20)))
		CompactSlice(big, broot, nil)

		g, root := small()
		cg, stats := CompactSlice(g, root, nil)
		if got := cg.G.String(); got != want {
			t.Fatalf("iteration %d: compaction output drifted\nwant:\n%s\ngot:\n%s", i, want, got)
		}
		if cg.G.Fingerprint(cg.Root) != wantFP {
			t.Fatalf("iteration %d: compacted fingerprint drifted", i)
		}
		if stats != stats0 {
			t.Fatalf("iteration %d: stats drifted: %+v vs %+v", i, stats, stats0)
		}
	}
}
