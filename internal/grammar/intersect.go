package grammar

import (
	"sqlciv/internal/automata"
	"sqlciv/internal/budget"
	"sqlciv/internal/obs"
)

// IntersectInto computes the intersection of the context-free language
// rooted at root with the regular language of d, materializing the result
// grammar into g itself and returning its fresh root nonterminal. It
// implements the paper's Figure 7 on the shared worklist (Reach): every
// discovered item (X, i, j) becomes a fresh nonterminal X_{ij}, with TAINTIF
// propagating the direct and indirect labels from each original nonterminal
// X onto it, and every distinct hyperedge becomes one of its productions.
//
// The boolean result reports whether the intersection is nonempty; when it
// is empty the returned symbol is invalid and must not be used.
func IntersectInto(g *Grammar, root Sym, d *automata.DFA) (Sym, bool) {
	return IntersectIntoT(g, root, d, nil, nil)
}

// IntersectIntoT is IntersectInto metered by b and observed by sp. The
// worklist is worst-case O(|R|·|Q|³) and b bounds it as NewReach says; on
// exhaustion g may hold a partial construction and must be discarded. The
// discovered-item and normalized-rule totals flush onto sp when the
// construction finishes (counters "intersect.items", "intersect.rules"), so
// the hot loop touches no tracer state. A nil sp records nothing.
func IntersectIntoT(g *Grammar, root Sym, d *automata.DFA, b *budget.Budget, sp *obs.Span) (Sym, bool) {
	r := NewReach(g, root, d.NumStates(), b)
	r.Materialize(func(e Edge, rhs []Sym) []Sym {
		if e.A >= 0 {
			rhs = append(rhs, Sym(e.A))
		}
		return rhs
	})
	newRoot := Sym(-1)
	for _, it := range intersect(r, d, sp) {
		if newRoot < 0 {
			newRoot = g.NewNT(g.RawName(root))
			g.TaintIf(root, newRoot)
		}
		g.Add(newRoot, r.NT(it))
	}
	r.Release()
	if newRoot < 0 {
		return 0, false
	}
	return newRoot, true
}

// intersect seeds r with (X, q, q) for every rule X → ε and state q, then
// (X, q, d(q, t)) for every rule X → t, terminal then state ascending, which
// fixes item numbering; a seed's payload is its terminal, or -1 for ε. It
// runs the worklist, counts onto sp, and returns the root's items from d's
// start to an accepting state, accepting state ascending.
func intersect(r *Reach, d *automata.DFA, sp *obs.Span) []int32 {
	nq := int32(d.NumStates())
	for _, lhs := range r.EpsLHS() {
		for q := int32(0); q < nq; q++ {
			r.Seed(lhs, q, q, -1, 0)
		}
	}
	for t := 0; t < NumTerminals; t++ {
		lhss := r.UnitLHS(Sym(t))
		for q := int32(0); q < nq && len(lhss) > 0; q++ {
			to := int32(d.Step(int(q), t))
			for _, lhs := range lhss {
				r.Seed(lhs, q, to, int32(t), 0)
			}
		}
	}
	r.Run()
	sp.Count("intersect.items", int64(r.NumItems()))
	sp.Count("intersect.rules", int64(len(r.rules)))

	r.roots = r.roots[:0]
	q0 := int32(d.Start())
	for q := int32(0); q < nq; q++ {
		if !d.IsAccept(int(q)) {
			continue
		}
		if it := r.find(0, q0, q); it >= 0 {
			r.roots = append(r.roots, it)
		}
	}
	return r.roots
}

// IntersectEmpty reports whether L(root) ∩ L(d) is empty. It runs the
// Figure 7 worklist and looks for a root item; g is left unchanged.
func IntersectEmpty(g *Grammar, root Sym, d *automata.DFA) bool {
	return IntersectEmptyT(g, root, d, nil, nil)
}

// IntersectEmptyT is IntersectEmpty metered by b and observed by sp.
func IntersectEmptyT(g *Grammar, root Sym, d *automata.DFA, b *budget.Budget, sp *obs.Span) bool {
	r := NewReach(g, root, d.NumStates(), b)
	empty := len(intersect(r, d, sp)) == 0
	r.Release()
	return empty
}

// IntersectWitness returns a shortest string in L(root) ∩ L(d), if any: the
// string WitnessString would return for the root of the intersection
// IntersectInto materializes. g is left unchanged.
func IntersectWitness(g *Grammar, root Sym, d *automata.DFA) (string, bool) {
	return IntersectWitnessT(g, root, d, nil, nil)
}

// IntersectWitnessT is IntersectWitness metered by b and observed by sp,
// with IntersectIntoT's items, counters and budget charges. It reads the
// witness off the items and hyperedges without building a grammar.
func IntersectWitnessT(g *Grammar, root Sym, d *automata.DFA, b *budget.Budget, sp *obs.Span) (string, bool) {
	r := NewReach(g, root, d.NumStates(), b)
	w, ok := r.shortestString(intersect(r, d, sp))
	r.Release()
	return w, ok
}
