package grammar

import "sqlciv/internal/automata"

// FromNFAInto materializes a right-linear grammar equivalent to the NFA into
// g and returns its root nonterminal. Every created nonterminal carries the
// given label set — this is how the analysis keeps taint on sound regular
// over-approximations (e.g., the Σ* image of a string operation applied
// inside a grammar cycle, paper §3.1.2).
func FromNFAInto(g *Grammar, n *automata.NFA, label Label) Sym {
	nts := make([]Sym, n.NumStates())
	for s := range nts {
		nt := g.NewNT("")
		if label != 0 {
			g.AddLabel(nt, label)
		}
		nts[s] = nt
	}
	for s := 0; s < n.NumStates(); s++ {
		if n.IsAccept(s) {
			g.Add(nts[s])
		}
	}
	n.Edges(func(from, sym, to int) {
		g.Add(nts[from], Sym(sym), nts[to])
	})
	// Epsilon moves become unit productions.
	for s := 0; s < n.NumStates(); s++ {
		forEachEps(n, s, func(t int) {
			g.Add(nts[s], nts[t])
		})
	}
	return nts[n.Start()]
}

// forEachEps iterates the direct epsilon successors of state s.
func forEachEps(n *automata.NFA, s int, f func(t int)) {
	for _, t := range n.EpsTargets(s) {
		f(t)
	}
}
