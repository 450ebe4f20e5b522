package deriv

import "sqlciv/internal/grammar"

// parseReference is the structural Earley parser check 5 ran before the
// flat-table rewrite, kept as the differential oracle for session.parse. It
// walks the reference grammar through grammar.Rhs and NumProdsOf, predicts
// a nonterminal's productions from every item that waits on it, and
// completes an item by scanning every item at its origin. It applies the
// zero-step rule after seeding, as check 5 always has, and returns its
// answer with the number of distinct items it admitted, which must equal
// session.parse's on every input.
func parseReference(g *grammar.Grammar, nullable []bool, start grammar.Sym, input form, sets [][]bool) (bool, int64) {
	type item struct {
		nt             grammar.Sym
		prod, dot, org int32
	}
	n := len(input)
	seen := make([]map[item]bool, n+1)
	order := make([][]item, n+1)
	add := func(k int, it item) {
		if seen[k] == nil {
			seen[k] = map[item]bool{}
		}
		if !seen[k][it] {
			seen[k][it] = true
			order[k] = append(order[k], it)
		}
	}
	for pi := 0; pi < g.NumProdsOf(start); pi++ {
		add(0, item{start, int32(pi), 0, 0})
	}
	items := func() (c int64) {
		for _, m := range seen {
			c += int64(len(m))
		}
		return c
	}
	// Top-level: the whole input may be the single symbol `start` itself
	// (F(X) ⇒* F(X) in zero steps).
	if n == 1 && symCanBe(input[0], start, sets) {
		return true, items()
	}
	for k := 0; k <= n; k++ {
		for idx := 0; idx < len(order[k]); idx++ {
			it := order[k][idx]
			rhs := g.Rhs(it.nt, int(it.prod))
			if int(it.dot) < len(rhs) {
				next := rhs[it.dot]
				// scan: both terminals and nonterminals can be scanned —
				// a nonterminal in the derived sentential form stays
				// unexpanded when it matches the input position.
				if k < n && symCanBe(input[k], next, sets) {
					add(k+1, item{it.nt, it.prod, it.dot + 1, it.org})
				}
				if !grammar.IsTerminal(next) {
					for pi := 0; pi < g.NumProdsOf(next); pi++ {
						add(k, item{next, int32(pi), 0, int32(k)})
					}
					if nullable[int(next)-grammar.NumTerminals] {
						add(k, item{it.nt, it.prod, it.dot + 1, it.org})
					}
				}
				continue
			}
			for _, back := range order[it.org] {
				brhs := g.Rhs(back.nt, int(back.prod))
				if int(back.dot) < len(brhs) && brhs[back.dot] == it.nt {
					add(k, item{back.nt, back.prod, back.dot + 1, back.org})
				}
			}
		}
	}
	for _, it := range order[n] {
		if it.nt == start && it.org == 0 && int(it.dot) == len(g.Rhs(start, int(it.prod))) {
			return true, items()
		}
	}
	return false, items()
}

// nullables returns, per nonterminal index of g, whether it derives ε.
func nullables(g *grammar.Grammar) []bool {
	nullable := make([]bool, g.NumNTs())
	for changed := true; changed; {
		changed = false
		g.ForEachProd(func(lhs grammar.Sym, rhs []grammar.Sym) {
			for _, s := range rhs {
				if grammar.IsTerminal(s) || !nullable[int(s)-grammar.NumTerminals] {
					return
				}
			}
			if li := int(lhs) - grammar.NumTerminals; !nullable[li] {
				nullable[li], changed = true, true
			}
		})
	}
	return nullable
}
