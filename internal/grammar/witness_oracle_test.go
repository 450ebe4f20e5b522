package grammar

import (
	"math"
	"math/rand"
	"testing"

	"sqlciv/internal/automata"
)

// witnessOracle is the memoizing Witness that shortestDerivation replaced,
// kept verbatim as the differential oracle: it stores every reached
// nonterminal's full expansion, so its memory is quadratic in the witness
// length on chain-shaped grammars.
func witnessOracle(g *Grammar, nt Sym) ([]Sym, bool) {
	n := g.NumNTs()
	// cost = length*sizeWeight + treeSize; treeSize bounds recursion.
	const sizeWeight = 1 << 20
	cost := make([]int64, n)
	for i := range cost {
		cost[i] = math.MaxInt64
	}
	changed := true
	for changed {
		changed = false
		for i := 0; i < n; i++ {
			for pi := 0; pi < g.numProdsAt(i); pi++ {
				rhs := g.rhsAt(i, pi)
				total := int64(1) // production application
				ok := true
				for _, s := range rhs {
					if IsTerminal(s) {
						total += sizeWeight
						continue
					}
					c := cost[g.ntIndex(s)]
					if c == math.MaxInt64 {
						ok = false
						break
					}
					total += c
				}
				if ok && total < cost[i] {
					cost[i] = total
					changed = true
				}
			}
		}
	}
	if cost[g.ntIndex(nt)] == math.MaxInt64 {
		return nil, false
	}
	// Reconstruct bottom-up with memoization: canonical(i) is the
	// lexicographically smallest expansion among i's minimal-cost
	// productions. Recursion terminates because every nonterminal of a
	// minimal-cost production has strictly smaller cost than its LHS (the
	// production itself contributes +1).
	memo := make([][]Sym, n)
	var canonical func(i int) []Sym
	expandRHS := func(rhs []Sym) []Sym {
		var out []Sym
		for _, x := range rhs {
			if IsTerminal(x) {
				out = append(out, x)
			} else {
				out = append(out, canonical(g.ntIndex(x))...)
			}
		}
		return out
	}
	canonical = func(i int) []Sym {
		if memo[i] != nil {
			return memo[i]
		}
		var bestExp []Sym
		haveBest := false
		for pi := 0; pi < g.numProdsAt(i); pi++ {
			rhs := g.rhsAt(i, pi)
			total := int64(1)
			ok := true
			for _, x := range rhs {
				if IsTerminal(x) {
					total += sizeWeight
					continue
				}
				c := cost[g.ntIndex(x)]
				if c == math.MaxInt64 {
					ok = false
					break
				}
				total += c
			}
			// Expand only exactly-minimal productions: their constituents
			// all have cost < cost[i], so the recursion strictly descends.
			if !ok || total != cost[i] {
				continue
			}
			exp := expandRHS(rhs)
			if !haveBest || symsLess(exp, bestExp) {
				bestExp = exp
				haveBest = true
			}
		}
		if bestExp == nil {
			bestExp = []Sym{} // ε production: non-nil marks the memo entry
		}
		memo[i] = bestExp
		return bestExp
	}
	return canonical(g.ntIndex(nt)), true
}

// symsLess compares two symbol sequences lexicographically.
func symsLess(a, b []Sym) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// tiedGrammar builds a grammar rich in equal-cost alternatives: every
// nonterminal has several productions of one length over a two-letter
// alphabet, some sharing long prefixes through other nonterminals, so the
// tie-break decides most choices.
func tiedGrammar(r *rand.Rand) (*Grammar, Sym) {
	g := New()
	nts := make([]Sym, 3+r.Intn(5))
	for i := range nts {
		nts[i] = g.NewNT("")
	}
	alpha := []byte("ab")
	for i := len(nts) - 1; i >= 0; i-- {
		nt := nts[i]
		for k := 0; k < 2+r.Intn(4); k++ {
			var rhs []Sym
			for j := 0; j < 1+r.Intn(4); j++ {
				if i+1 < len(nts) && r.Intn(3) == 0 {
					rhs = append(rhs, nts[i+1+r.Intn(len(nts)-i-1)])
				} else {
					rhs = append(rhs, T(alpha[r.Intn(len(alpha))]))
				}
			}
			g.Add(nt, rhs...)
		}
		if r.Intn(4) == 0 {
			g.Add(nt) // ε
		}
	}
	g.SetStart(nts[0])
	return g, nts[0]
}

// TestWitnessMatchesOracle requires the walk-based Witness and
// WitnessString to agree exactly with the memoizing oracle on random,
// labeled, tie-heavy and intersected grammars, for every nonterminal.
func TestWitnessMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	abEven := func() *automata.DFA {
		n := automata.NewNFA()
		s0, s1 := n.AddState(), n.AddState()
		n.SetAccept(s0, true)
		for _, c := range []byte("ab'") {
			n.AddEdge(s0, int(c), s1)
			n.AddEdge(s1, int(c), s0)
		}
		return n.Determinize()
	}()
	check := func(trial int, g *Grammar) {
		t.Helper()
		for i := 0; i < g.NumNTs(); i++ {
			nt := Sym(NumTerminals + i)
			want, wok := witnessOracle(g, nt)
			got, ok := g.Witness(nt)
			if ok != wok || TermsToString(got) != TermsToString(want) || (ok && got == nil) {
				t.Fatalf("trial %d N%d: Witness = %q,%t; oracle %q,%t\n%s",
					trial, i, TermsToString(got), ok, TermsToString(want), wok, g.String())
			}
			gs, sok := g.WitnessString(nt)
			if sok != wok || (wok && gs != TermsToString(want)) {
				t.Fatalf("trial %d N%d: WitnessString = %q,%t; oracle %q,%t", trial, i, gs, sok, TermsToString(want), wok)
			}
		}
	}
	for trial := 0; trial < 300; trial++ {
		var g *Grammar
		var root Sym
		switch trial % 3 {
		case 0:
			g, root = randomLabeledGrammar(r)
		case 1:
			g, root = tiedGrammar(r)
		default:
			g, root = randomGrammar(r)
		}
		check(trial, g)
		// The witness read off the worklist must be the materialized one,
		// from every nonterminal.
		for i := 0; i < g.NumNTs(); i++ {
			nt := Sym(NumTerminals + i)
			want, wok := intersectWitnessRef(g, nt, abEven)
			if got, ok := IntersectWitness(g, nt, abEven); ok != wok || got != want {
				t.Fatalf("trial %d N%d: IntersectWitness = %q,%t; materialized %q,%t\n%s",
					trial, i, got, ok, want, wok, g.String())
			}
		}
		// The intersection's items tie often: the same string spans the
		// automaton through different helper chains.
		if _, ok := IntersectInto(g, root, abEven); ok {
			check(trial, g)
		}
	}
}

// intersectWitnessRef is the materializing witness that IntersectWitnessT
// replaced, kept as its differential reference: copy the root's
// sub-grammar, build the intersection into the copy, and read WitnessString
// off its root.
func intersectWitnessRef(g *Grammar, root Sym, d *automata.DFA) (string, bool) {
	scratch, remap := g.Extract(root)
	nr, ok := IntersectInto(scratch, remap[root], d)
	if !ok {
		return "", false
	}
	return scratch.WitnessString(nr)
}
