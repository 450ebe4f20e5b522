package grammar

import "math"

// witnessSizeWeight weighs a derivation's length against its tree size: a
// derivation costs length·witnessSizeWeight + tree size, so a shorter
// string always wins and the tree size breaks ties and bounds recursion.
const witnessSizeWeight = 1 << 20

// shortestScratch presents a Figure 7 construction's items to
// chooseShortest: an item's alternatives are its hyperedges in discovery
// order, and the node after the last item is the root, with one unit
// alternative per root item.
type shortestScratch struct {
	byItem  csr     // each node's hyperedges, in order
	uses    csr     // the hyperedges each item is a constituent of
	rhs     []Sym   // per hyperedge: its right-hand side, padded with -1 to two symbols
	pending []int8  // per hyperedge: constituents not yet settled
	cost    []int64 // per node: least derivation cost
	choice  []int32
	heap    []costEntry
}

type costEntry struct {
	cost int64
	item int32
}

func (s *shortestScratch) numProdsAt(v int) int { return len(s.byItem.bucket(int32(v))) }

func (s *shortestScratch) rhsAt(v, k int) []Sym { return s.rhsOf(s.byItem.bucket(int32(v))[k]) }

func (s *shortestScratch) rhsOf(ei int32) []Sym {
	rhs := s.rhs[2*ei : 2*ei+2]
	for len(rhs) > 0 && rhs[len(rhs)-1] < 0 {
		rhs = rhs[:len(rhs)-1]
	}
	return rhs
}

// shortestString returns the witness of an intersection whose root derives
// each of roots: what WitnessString returns for the root IntersectIntoT
// materializes, whose item nonterminals have the hyperedges as productions.
// Costs settle in ascending order by Knuth's generalization of Dijkstra's
// algorithm (IPL 1977): a hyperedge's cost is known once its constituents
// have settled, and exceeds each of theirs. The worklist discovers items
// only from discovered constituents, so every item settles.
func (r *Reach) shortestString(roots []int32) (string, bool) {
	if len(roots) == 0 {
		return "", false
	}
	s, n := &r.shortest, len(r.items)
	for _, it := range roots {
		r.edges = append(r.edges, Edge{Item: int32(n), A: it, Kind: UnitEdge})
	}
	edges := r.edges
	s.byItem.start(n + 1)
	s.uses.start(n + 1)
	s.pending = fill(s.pending, len(edges), 0)
	s.rhs = s.rhs[:0]
	for pass := 0; pass < 2; pass++ {
		for ei, e := range edges {
			s.byItem.add(pass, e.Item, int32(ei))
			rhs := [2]Sym{Sym(e.A), -1} // a seed's terminal, or -1 for ε
			for k, p := range (&[2]int32{e.A, e.C})[:e.Kind] {
				s.uses.add(pass, p, int32(ei))
				s.pending[ei] += int8(pass)
				rhs[k] = NumTerminals + Sym(p)
			}
			if pass == 1 {
				s.rhs = append(s.rhs, rhs[0], rhs[1])
			}
		}
		if pass == 0 {
			s.byItem.prefix()
			s.uses.prefix()
		}
	}

	s.cost = fill(s.cost, n+1, math.MaxInt64)
	s.heap = s.heap[:0]
	for ei, e := range edges {
		if s.pending[ei] == 0 {
			s.relax(e.Item, prodCost(s.cost, s.rhsOf(int32(ei))))
		}
	}
	for len(s.heap) > 0 {
		top := s.pop()
		if top.cost != s.cost[top.item] {
			continue // superseded by a cheaper entry
		}
		for _, ei := range s.uses.bucket(top.item) {
			if s.pending[ei]--; s.pending[ei] == 0 {
				s.relax(edges[ei].Item, prodCost(s.cost, s.rhsOf(ei)))
			}
		}
	}
	s.choice = fill(s.choice, n+1, -1)
	w, length := chooseShortest(s, s.cost, s.choice, n)
	return w.string(length), true
}

// relax lowers item it's cost to c, when c is lower, and queues it.
func (s *shortestScratch) relax(it int32, c int64) {
	if c >= s.cost[it] {
		return
	}
	s.cost[it] = c
	h := append(s.heap, costEntry{c, it})
	for i := len(h) - 1; i > 0 && h[(i-1)/2].cost > h[i].cost; i = (i - 1) / 2 {
		h[(i-1)/2], h[i] = h[i], h[(i-1)/2]
	}
	s.heap = h
}

// pop removes and returns the cheapest queued entry.
func (s *shortestScratch) pop() costEntry {
	h := s.heap
	top := h[0]
	h[0] = h[len(h)-1]
	h = h[:len(h)-1]
	for i := 0; ; {
		c := 2*i + 1
		if c+1 < len(h) && h[c+1].cost < h[c].cost {
			c++
		}
		if c >= len(h) || h[i].cost <= h[c].cost {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	s.heap = h
	return top
}
