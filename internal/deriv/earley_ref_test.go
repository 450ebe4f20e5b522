package deriv

import "sqlciv/internal/grammar"

// parseReference is the structural Earley parser check 5 ran before the
// flat-table rewrite, kept as the differential oracle for session.parse. It
// walks the reference grammar through grammar.Rhs and NumProdsOf and
// completes an item by scanning every item at its origin. It admits items
// through the same packed (slot, origin) keys (refTables.first holds the
// same slot ids the old prodBase table did), so its item count and verdict
// must equal parse's on every input.
func parseReference(s *session, sc *refScratch, start grammar.Sym, input form, sets [][]bool) bool {
	s.parses++
	s.b.Step(1)
	c := s.c
	g := c.ref
	tab := c.tab

	type item = refItem
	n := len(input)
	sc.reset(n + 1)
	add := func(k int, it item) {
		slot := tab.first[int(it.nt)-grammar.NumTerminals][it.prod] + it.dot
		key := uint64(uint32(slot))<<32 | uint64(uint32(it.origin))
		if sc.sets[k].add(key) {
			s.b.Step(1)
			s.items++
			sc.order[k] = append(sc.order[k], it)
		}
	}
	matches := func(k int, expected grammar.Sym) bool {
		v := input[k]
		if id, isVar := varID(v); isVar {
			return sets[id][int(expected)]
		}
		return grammar.Sym(v) == expected
	}
	for pi := 0; pi < g.NumProdsOf(start); pi++ {
		add(0, item{start, int32(pi), 0, 0})
	}
	// Top-level: the whole input may be the single symbol `start` itself
	// (F(X) ⇒* F(X) in zero steps).
	if n == 1 && matches(0, start) {
		return true
	}
	for k := 0; k <= n; k++ {
		for idx := 0; idx < len(sc.order[k]); idx++ {
			it := sc.order[k][idx]
			rhs := g.Rhs(it.nt, int(it.prod))
			if int(it.dot) < len(rhs) {
				next := rhs[it.dot]
				// scan: both terminals and nonterminals can be scanned —
				// a nonterminal in the derived sentential form stays
				// unexpanded when it matches the input position.
				if k < n && matches(k, next) {
					add(k+1, item{it.nt, it.prod, it.dot + 1, it.origin})
				}
				if !grammar.IsTerminal(next) {
					for pi := 0; pi < g.NumProdsOf(next); pi++ {
						add(k, item{next, int32(pi), 0, int32(k)})
					}
					if tab.nullable[int(next)-grammar.NumTerminals] {
						add(k, item{it.nt, it.prod, it.dot + 1, it.origin})
					}
				}
				continue
			}
			for _, back := range sc.order[it.origin] {
				brhs := g.Rhs(back.nt, int(back.prod))
				if int(back.dot) < len(brhs) && brhs[back.dot] == it.nt {
					add(k, item{back.nt, back.prod, back.dot + 1, back.origin})
				}
			}
		}
	}
	for _, it := range sc.order[n] {
		if it.nt == start && it.origin == 0 && int(it.dot) == len(g.Rhs(start, int(it.prod))) {
			return true
		}
	}
	return false
}

// refItem is one structural Earley item: a dotted reference production
// plus the input position its recognition started at.
type refItem struct {
	nt     grammar.Sym
	prod   int32
	dot    int32
	origin int32
}

// refScratch is parseReference's workspace: one packed-key set and one
// discovery-ordered item list per input position.
type refScratch struct {
	sets  []u64set
	order [][]refItem
}

func (sc *refScratch) reset(m int) {
	for len(sc.sets) < m {
		sc.sets = append(sc.sets, u64set{})
		sc.order = append(sc.order, nil)
	}
	for i := 0; i < m; i++ {
		sc.sets[i].reset()
		sc.order[i] = sc.order[i][:0]
	}
}
