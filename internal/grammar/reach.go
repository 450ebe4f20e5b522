package grammar

import (
	"sync"

	"sqlciv/internal/budget"
)

// Reach is the Figure 7 CFL-reachability worklist that the intersection,
// its emptiness test and witness, and the FST image (fst.ImageInto) run. It
// normalizes the sub-grammar reachable from a root to rules of at most two
// symbols and discovers items (X, i, j) — local X spans automaton states i
// to j — bottom-up from its caller's seeds, through unit and binary rules,
// recording each distinct hyperedge (what an item is found by) once, in
// discovery order. Discovery does not depend on the consumer, which may
// materialize a grammar as it runs (Materialize) or read a witness off the
// items (shortestString). Local 0 is the root; then come the root's
// reachable nonterminals in depth-first order, normalization helpers, and
// the terminal locals of terminals in binary rules.
type Reach struct {
	g *Grammar
	b *budget.Budget

	localOf   []int32 // g's nonterminal index -> local id; all -1 while pooled
	localSyms []Sym   // local id -> g's nonterminal, or -1 for helpers
	rules     []reachRule
	epsLHS    []int32
	unitT     csr // by terminal: X -> t
	unitNT    csr // by rhs local: X -> Y
	binFirst  csr // by first rhs local: X -> Y B
	binSecond csr // by second rhs local: X -> A Y

	nq    int32
	items []reachItem
	work  []int32
	edges []Edge
	dedup edgeSet
	rows  []int32 // per local: its row in index, -1 before its first item
	index []int32

	seedRHS func(e Edge, rhs []Sym) []Sym // set by Materialize
	nts     []Sym                         // item -> its nonterminal, when materializing
	rhs     []Sym

	cur       []int32 // normalization scratch
	stack     []Sym
	termLocal []int32
	roots     []int32         // the intersection consumers' root items
	shortest  shortestScratch // the witness consumer's tables (witness.go)
}

// reachRule is one normalized rule over locals: a and c are local ids
// (>= 0) or terminals encoded as ^sym (< 0), n is the right-hand side length.
type reachRule struct {
	lhs  int32
	a, c int32
	n    int8
}

// reachItem is one discovered item. nextI and nextJ thread the items of the
// same (x, i) and of the same (x, j) in discovery order; -1 ends a chain.
type reachItem struct {
	x, i, j      int32
	nextI, nextJ int32
}

// EdgeKind tells how a hyperedge derives its item; its value is the number
// of items it derives it from, A then C.
type EdgeKind uint8

const (
	SeedEdge EdgeKind = iota // supplied through Seed: A and C are its payload
	UnitEdge                 // X → Y applied to item A
	PairEdge                 // X → Y Z applied to adjacent items A and C
)

// Edge is one hyperedge: Item is derived by Kind from A and C.
type Edge struct {
	Item, A, C int32
	Kind       EdgeKind
}

// intersectItemBytes estimates the footprint of one discovered item: the
// record, its index entries, and the fresh nonterminal a materializing
// consumer adds.
const intersectItemBytes = 96

// intersectEdgeBytes estimates one recorded hyperedge: its Edge and its
// share of the dedup table, which stays at most half full. A materializing
// consumer adds the production it makes of the edge: prodBytes for its
// reference, plus 4 bytes a right-hand-side symbol.
const (
	intersectEdgeBytes = 16 + 2*8
	prodBytes          = 8
)

// reachPoolMaxItems caps the tables a released Reach may keep at about a
// witness's size. Larger phase-1 tables go to the collector rather than to
// a later witness, whose probes would spread over tables sized for them.
const reachPoolMaxItems = 1 << 14

var reachPool = sync.Pool{New: func() any { return new(Reach) }}

// NewReach normalizes the sub-grammar of g reachable from root for a
// construction over an automaton with nq states, metered by b (nil is
// unlimited): a step per discovered item and per worklist pop,
// intersectItemBytes per item and intersectEdgeBytes per hyperedge, more
// when it is materialized. On exhaustion b panics with *budget.Exceeded.
func NewReach(g *Grammar, root Sym, nq int, b *budget.Budget) *Reach {
	r := reachPool.Get().(*Reach)
	r.g, r.b, r.nq = g, b, int32(nq)
	r.items, r.work, r.edges = r.items[:0], r.work[:0], r.edges[:0]
	r.index, r.nts = r.index[:0], r.nts[:0]
	r.dedup.reset()
	r.normalize(root)
	r.rows = fill(r.rows, len(r.localSyms), -1)
	return r
}

// Release recycles r; neither r nor anything read from it may be used after.
func (r *Reach) Release() {
	for _, s := range r.localSyms {
		if s >= 0 {
			r.localOf[int(s)-NumTerminals] = -1
		}
	}
	r.g, r.b, r.seedRHS = nil, nil, nil
	if len(r.items) <= reachPoolMaxItems && len(r.edges)+len(r.index) <= 4*reachPoolMaxItems &&
		cap(r.localOf) <= 4*reachPoolMaxItems {
		reachPool.Put(r)
	}
}

// normalize snapshots the rules reachable from root into flat records of at
// most two symbols and files them by role.
func (r *Reach) normalize(root Sym) {
	g := r.g
	if n := g.NumNTs(); cap(r.localOf) < n {
		r.localOf = fill[int32](nil, n, -1)
	} else {
		r.localOf = r.localOf[:n]
	}
	r.localSyms, r.rules = r.localSyms[:0], r.rules[:0]
	r.newLocal(root)
	r.stack = append(r.stack[:0], root)
	for len(r.stack) > 0 {
		nt := r.stack[len(r.stack)-1]
		r.stack = r.stack[:len(r.stack)-1]
		for pi := 0; pi < g.NumProdsOf(nt); pi++ {
			rhs := g.Rhs(nt, pi)
			w := r.cur[:0]
			for _, s := range rhs {
				switch {
				case IsTerminal(s):
					w = append(w, -1-int32(s))
				case r.localOf[int(s)-NumTerminals] < 0:
					w = append(w, r.newLocal(s))
					r.stack = append(r.stack, s)
				default:
					w = append(w, r.localOf[int(s)-NumTerminals])
				}
			}
			r.cur = w
			lhs := r.localOf[int(nt)-NumTerminals]
			for ; len(w) > 2; w = w[1:] { // helper locals split long rules
				helper := r.newLocal(-1)
				r.rules = append(r.rules, reachRule{lhs: lhs, a: w[0], c: helper, n: 2})
				lhs = helper
			}
			ru := reachRule{lhs: lhs, n: int8(len(w))}
			if len(w) > 0 {
				ru.a = w[0]
			}
			if len(w) > 1 {
				ru.c = w[1]
			}
			r.rules = append(r.rules, ru)
		}
	}

	// Terminal locals replace the terminals of binary rules, so the joins
	// only ever combine items.
	r.termLocal = fill(r.termLocal, NumTerminals, -1)
	for ri := 0; ri < len(r.rules); ri++ {
		if r.rules[ri].n == 2 {
			a, c := r.termLocalOf(r.rules[ri].a), r.termLocalOf(r.rules[ri].c)
			r.rules[ri].a, r.rules[ri].c = a, c
		}
	}

	nLocal := len(r.localSyms)
	r.epsLHS = r.epsLHS[:0]
	r.unitT.start(NumTerminals)
	r.unitNT.start(nLocal)
	r.binFirst.start(nLocal)
	r.binSecond.start(nLocal)
	for pass := 0; pass < 2; pass++ { // count, then file
		for ri, ru := range r.rules {
			switch {
			case pass == 1 && ru.n == 0:
				r.epsLHS = append(r.epsLHS, ru.lhs)
			case ru.n == 1 && ru.a < 0:
				r.unitT.add(pass, -1-ru.a, ru.lhs)
			case ru.n == 1:
				r.unitNT.add(pass, ru.a, int32(ri))
			case ru.n == 2:
				r.binFirst.add(pass, ru.a, int32(ri))
				r.binSecond.add(pass, ru.c, int32(ri))
			}
		}
		if pass == 0 {
			r.unitT.prefix()
			r.unitNT.prefix()
			r.binFirst.prefix()
			r.binSecond.prefix()
		}
	}
}

// termLocalOf returns v when it is a local, else the terminal local of
// terminal ^v, made with its unit rule on first use.
func (r *Reach) termLocalOf(v int32) int32 {
	if v >= 0 {
		return v
	}
	if r.termLocal[-1-v] < 0 {
		r.termLocal[-1-v] = r.newLocal(-1)
		r.rules = append(r.rules, reachRule{lhs: r.termLocal[-1-v], a: v, n: 1})
	}
	return r.termLocal[-1-v]
}

func (r *Reach) newLocal(orig Sym) int32 {
	id := int32(len(r.localSyms))
	r.localSyms = append(r.localSyms, orig)
	if orig >= 0 {
		r.localOf[int(orig)-NumTerminals] = id
	}
	return id
}

// fill returns s resized to n with every element v.
func fill[T any](s []T, n int, v T) []T {
	if cap(s) < n {
		s = make([]T, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = v
	}
	return s
}

// csr files values by key in compressed sparse rows, in the order they are
// filed: start, a counting pass of add(0, …), prefix, a filing pass of
// add(1, …) with the same arguments; then bucket(x) lists x's values.
type csr struct {
	end, idx []int32
}

func (c *csr) start(n int) { c.end = fill(c.end, n+1, 0) }

func (c *csr) prefix() {
	sum := int32(0)
	for x, n := range c.end {
		c.end[x] = sum
		sum += n
	}
	c.idx = fill(c.idx, int(sum), 0)
}

func (c *csr) add(pass int, x, v int32) {
	if pass == 1 {
		c.idx[c.end[x]] = v
	}
	c.end[x]++
}

func (c *csr) bucket(x int32) []int32 {
	start := int32(0)
	if x > 0 {
		start = c.end[x-1]
	}
	return c.idx[start:c.end[x]]
}

// EpsLHS lists the locals with an ε rule, in rule order.
func (r *Reach) EpsLHS() []int32 { return r.epsLHS }

// UnitLHS lists the locals X with a rule X → t, in rule order.
func (r *Reach) UnitLHS(t Sym) []int32 { return r.unitT.bucket(int32(t)) }

// NumItems reports the number of items discovered so far.
func (r *Reach) NumItems() int { return len(r.items) }

// Item returns item it's local and state span.
func (r *Reach) Item(it int32) (x, i, j int32) {
	item := &r.items[it]
	return item.x, item.i, item.j
}

// find returns the index of item (x, i, j), or -1 when it is undiscovered.
func (r *Reach) find(x, i, j int32) int32 {
	first, _ := r.chain(x, i, byStart)
	for it := first; it >= 0; it = r.items[it].nextI {
		if r.items[it].j == j {
			return it
		}
	}
	return -1
}

// Materialize makes the construction add to g, from the first seed on, a
// nonterminal per item, named and labeled after its local's (the paper's
// TAINTIF(X, X_ij)), and a production per hyperedge: its items'
// nonterminals, or for a seed what seed appends.
func (r *Reach) Materialize(seed func(e Edge, rhs []Sym) []Sym) { r.seedRHS = seed }

// NT returns the nonterminal Materialize made for item it.
func (r *Reach) NT(it int32) Sym { return r.nts[it] }

// Seed discovers item (x, i, j) by a seed hyperedge carrying the payload
// (a, c). Seeds with equal payloads for the same item are one hyperedge.
func (r *Reach) Seed(x, i, j, a, c int32) {
	r.discover(x, i, j, Edge{A: a, C: c, Kind: SeedEdge})
}

// Run drains the worklist: every item is popped once and joined with the
// items its unit and binary rules combine it with.
func (r *Reach) Run() {
	for len(r.work) > 0 {
		r.b.Step(1)
		it := r.work[len(r.work)-1]
		r.work = r.work[:len(r.work)-1]
		y := r.items[it]
		for _, ri := range r.unitNT.bucket(y.x) {
			r.discover(r.rules[ri].lhs, y.i, y.j, Edge{A: it, Kind: UnitEdge})
		}
		// X -> Y B with Y = it. A chain is walked to the last item it had on
		// entry: items the join itself appends are popped later.
		for _, ri := range r.binFirst.bucket(y.x) {
			ru := r.rules[ri]
			first, last := r.chain(ru.c, y.j, byStart)
			for bt := first; bt >= 0; bt = r.items[bt].nextI {
				r.discover(ru.lhs, y.i, r.items[bt].j, Edge{A: it, C: bt, Kind: PairEdge})
				if bt == last {
					break
				}
			}
		}
		// X -> A Y with Y = it.
		for _, ri := range r.binSecond.bucket(y.x) {
			ru := r.rules[ri]
			first, last := r.chain(ru.a, y.i, byEnd)
			for at := first; at >= 0; at = r.items[at].nextJ {
				r.discover(ru.lhs, r.items[at].i, y.j, Edge{A: at, C: it, Kind: PairEdge})
				if at == last {
					break
				}
			}
		}
	}
}

// discover records item (x, i, j), when new, and its hyperedge e, when new.
func (r *Reach) discover(x, i, j int32, e Edge) {
	it := r.find(x, i, j)
	if it < 0 {
		r.b.Step(1)
		r.b.Grow(intersectItemBytes)
		it = int32(len(r.items))
		r.items = append(r.items, reachItem{x: x, i: i, j: j, nextI: -1, nextJ: -1})
		if prev := r.link(x, i, byStart, it); prev >= 0 {
			r.items[prev].nextI = it
		}
		if prev := r.link(x, j, byEnd, it); prev >= 0 {
			r.items[prev].nextJ = it
		}
		r.work = append(r.work, it)
		if r.seedRHS != nil {
			orig, name := r.localSyms[x], ""
			if orig >= 0 {
				name = r.g.RawName(orig)
			}
			nt := r.g.NewNT(name)
			if orig >= 0 {
				r.g.TaintIf(orig, nt)
			}
			r.nts = append(r.nts, nt)
		}
	}
	e.Item = it
	if !r.dedup.add(&r.edges, e) {
		return
	}
	r.b.Grow(intersectEdgeBytes)
	if r.seedRHS == nil {
		return
	}
	switch e.Kind {
	case PairEdge:
		r.rhs = append(r.rhs[:0], r.nts[e.A], r.nts[e.C])
	case UnitEdge:
		r.rhs = append(r.rhs[:0], r.nts[e.A])
	default:
		r.rhs = r.seedRHS(e, r.rhs[:0])
	}
	r.b.Grow(prodBytes + 4*int64(len(r.rhs)))
	r.g.Add(r.nts[it], r.rhs...)
}

// The item index chains the items of each local that start, and those that
// end, at each state, in discovery order. A local's row in the flat index
// holds, per chain and state, the chain's first and last item; rows exist
// only for locals with items.
const byStart, byEnd = 0, 1

// chain returns the first and last item of a chain, or -1, -1 when it is
// empty.
func (r *Reach) chain(x, q, end int32) (first, last int32) {
	if r.rows[x] < 0 {
		return -1, -1
	}
	k := r.rows[x] + 2*(end*r.nq+q)
	return r.index[k], r.index[k+1]
}

// link appends item it to a chain and returns the chain's previous last
// item, or -1 when it starts the chain.
func (r *Reach) link(x, q, end, it int32) int32 {
	if r.rows[x] < 0 {
		r.rows[x] = int32(len(r.index))
		for k := int32(0); k < 4*r.nq; k++ {
			r.index = append(r.index, -1)
		}
	}
	k := r.rows[x] + 2*(end*r.nq+q)
	prev := r.index[k+1]
	if prev < 0 {
		r.index[k] = it
	}
	r.index[k+1] = it
	return prev
}
