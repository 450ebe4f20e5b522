package grammar

import (
	"cmp"
	"math"
	"slices"
	"strings"
)

// MinLens computes, for every nonterminal, the length of a shortest terminal
// string it derives, or -1 when its language is empty. A worklist fixpoint
// over the productions.
func (g *Grammar) MinLens() []int64 {
	n := g.NumNTs()
	lens := make([]int64, n)
	for i := range lens {
		lens[i] = -1
	}
	changed := true
	for changed {
		changed = false
		for i := 0; i < n; i++ {
			for pi := 0; pi < g.numProdsAt(i); pi++ {
				rhs := g.rhsAt(i, pi)
				total := int64(0)
				ok := true
				for _, s := range rhs {
					if IsTerminal(s) {
						total++
						continue
					}
					l := lens[g.ntIndex(s)]
					if l < 0 {
						ok = false
						break
					}
					total += l
				}
				if ok && (lens[i] < 0 || total < lens[i]) {
					lens[i] = total
					changed = true
				}
			}
		}
	}
	return lens
}

// Empty reports whether L(nt) is empty.
func (g *Grammar) Empty(nt Sym) bool {
	return g.MinLens()[g.ntIndex(nt)] < 0
}

// Witness returns a shortest terminal string derivable from nt, or nil,
// false when nt derives nothing. The reconstruction follows productions that
// minimize (string length, derivation size) lexicographically, which
// guarantees termination; among equal-cost productions it picks the one
// whose expansion is lexicographically smallest, so the witness is a
// function of the grammar's language structure alone — α-renaming
// nonterminals or permuting production order cannot change it.
//
// Memory is linear in the grammar plus the witness: only each nonterminal's
// chosen production is memoized, tied candidates are compared by walking
// their expansions lazily, and the witness is written in one walk into one
// buffer sized from its cost, which bounds its length (up to 64 Ki).
func (g *Grammar) Witness(nt Sym) ([]Sym, bool) {
	w, n, ok := g.shortestDerivation(nt)
	if !ok {
		return nil, false
	}
	out := make([]Sym, 0, min(n, 1<<16))
	for s := w.next(); s >= 0; s = w.next() {
		out = append(out, s)
	}
	return out, true
}

// WitnessString is Witness rendered as a string (marker as "•").
func (g *Grammar) WitnessString(nt Sym) (string, bool) {
	w, n, ok := g.shortestDerivation(nt)
	if !ok {
		return "", false
	}
	return w.string(n), true
}

// derivations is what chooseShortest reads: each node's alternatives in
// order, right-hand sides whose symbols are terminals and nodes (node v is
// the symbol NumTerminals+v). A Grammar's nodes are its nonterminals; the
// witness consumer presents a Figure 7 construction's items (witness.go).
type derivations interface {
	numProdsAt(v int) int
	rhsAt(v, k int) []Sym
}

// prodCost is the cost of expanding rhs once: one for the production, a
// terminal costs witnessSizeWeight and a node its cost, or MaxInt64 when a
// node of rhs has none (yet).
func prodCost(cost []int64, rhs []Sym) int64 {
	total := int64(1)
	for _, s := range rhs {
		if IsTerminal(s) {
			total += witnessSizeWeight
			continue
		}
		c := cost[int(s)-NumTerminals]
		if c == math.MaxInt64 {
			return math.MaxInt64
		}
		total += c
	}
	return total
}

// shortestDerivation fixes, for every nonterminal the witness of nt can
// reach, the production Witness expands it by, and returns a walk over the
// witness's terminals together with a bound on its length.
func (g *Grammar) shortestDerivation(nt Sym) (*derivWalk, int64, bool) {
	n := g.NumNTs()
	cost := fill[int64](nil, n, math.MaxInt64)
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			for pi := 0; pi < g.numProdsAt(i); pi++ {
				if total := prodCost(cost, g.rhsAt(i, pi)); total < cost[i] {
					cost[i], changed = total, true
				}
			}
		}
	}
	root := g.ntIndex(nt)
	if cost[root] == math.MaxInt64 {
		return nil, 0, false
	}
	w, length := chooseShortest(g, cost, fill[int32](nil, n, -1), root)
	return w, length, true
}

// chooseShortest fixes, for every node some minimum-cost derivation of root
// reaches, the alternative the witness expands it by: the first of its
// minimum-cost alternatives unless a later one's expansion is
// lexicographically smaller (a proper prefix is smaller). cost holds every
// node's least cost; choice must be all -1. It returns a walk over the
// witness's terminals and cost[root]/witnessSizeWeight, which bounds the
// witness length and equals it unless the derivation has over 2²⁰ nodes.
func chooseShortest(d derivations, cost []int64, choice []int32, root int) (*derivWalk, int64) {
	// Every node of an exactly-minimal alternative costs strictly less than
	// its own node (the alternative contributes +1), so deciding the reached
	// nodes in ascending cost order decides each one's constituents first.
	order := []int32{int32(root)}
	choice[root] = 0 // reached; decided below
	for k := 0; k < len(order); k++ {
		i := int(order[k])
		for pi := 0; pi < d.numProdsAt(i); pi++ {
			rhs := d.rhsAt(i, pi)
			if prodCost(cost, rhs) != cost[i] {
				continue
			}
			for _, s := range rhs {
				if j := int(s) - NumTerminals; j >= 0 && choice[j] < 0 {
					choice[j] = 0
					order = append(order, int32(j))
				}
			}
		}
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(cost[a], cost[b]) })

	wa, wb := &derivWalk{d: d, choice: choice}, &derivWalk{d: d, choice: choice}
	less := func(i, pa, pb int) bool {
		wa.start(i, pa)
		wb.start(i, pb)
		for {
			a, b := wa.next(), wb.next()
			if a != b || a < 0 {
				return a < b
			}
		}
	}
	for _, i32 := range order {
		i, best := int(i32), -1
		for pi := 0; pi < d.numProdsAt(i); pi++ {
			if prodCost(cost, d.rhsAt(i, pi)) == cost[i] && (best < 0 || less(i, pi, best)) {
				best = pi
			}
		}
		choice[i] = int32(best)
	}

	wa.start(root, int(choice[root]))
	return wa, cost[root] / witnessSizeWeight
}

// derivWalk yields, one terminal at a time, the expansion of an alternative
// in which every node expands by its chosen alternative. The stack holds
// one frame per pending non-final node; a node in final position replaces
// its parent's frame, so right-linear chains walk in constant space.
type derivWalk struct {
	d      derivations
	choice []int32
	stack  []derivFrame
	rhs    []Sym // right-hand side of the top frame
}

type derivFrame struct {
	nt, prod, pos int32
}

// start positions the walk at the beginning of node i's alternative pi.
func (w *derivWalk) start(i, pi int) {
	w.stack = append(w.stack[:0], derivFrame{nt: int32(i), prod: int32(pi)})
	w.rhs = w.d.rhsAt(i, pi)
}

// next returns the walk's next terminal, or -1 when it is exhausted.
func (w *derivWalk) next() Sym {
	for len(w.stack) > 0 {
		f := &w.stack[len(w.stack)-1]
		if int(f.pos) == len(w.rhs) {
			w.stack = w.stack[:len(w.stack)-1]
			if len(w.stack) > 0 {
				top := w.stack[len(w.stack)-1]
				w.rhs = w.d.rhsAt(int(top.nt), int(top.prod))
			}
			continue
		}
		s := w.rhs[f.pos]
		f.pos++
		if IsTerminal(s) {
			return s
		}
		j := int(s) - NumTerminals
		child := derivFrame{nt: int32(j), prod: w.choice[j]}
		if int(f.pos) == len(w.rhs) {
			*f = child
		} else {
			w.stack = append(w.stack, child)
		}
		w.rhs = w.d.rhsAt(j, int(child.prod))
	}
	return -1
}

// string renders the rest of the walk with the marker as "•". n bounds its
// length and sizes the buffer, up to 64 Ki: an ε-heavy derivation's bound
// can be far above its length.
func (w *derivWalk) string(n int64) string {
	var b strings.Builder
	b.Grow(int(min(n, 1<<16)))
	for s := w.next(); s >= 0; s = w.next() {
		if s == MarkerSym {
			b.WriteString("•")
		} else {
			b.WriteByte(byte(s))
		}
	}
	return b.String()
}

// Reachable returns the set of nonterminals reachable from root (including
// root itself), as a bitset indexed by nonterminal index.
func (g *Grammar) Reachable(root Sym) []bool {
	return g.ReachableInto(root, make([]bool, g.NumNTs()))
}

// ReachableInto is Reachable writing into a caller-provided bitset, which
// must be at least NumNTs long and all-false; it is returned for chaining.
// Fixpoint callers (analysis lowering) reuse one buffer across many probes
// instead of allocating a fresh slice per call.
func (g *Grammar) ReachableInto(root Sym, seen []bool) []bool {
	seen = seen[:g.NumNTs()]
	stack := []int{g.ntIndex(root)}
	seen[stack[0]] = true
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for pi := 0; pi < g.numProdsAt(i); pi++ {
			for _, s := range g.rhsAt(i, pi) {
				if !IsTerminal(s) {
					j := g.ntIndex(s)
					if !seen[j] {
						seen[j] = true
						stack = append(stack, j)
					}
				}
			}
		}
	}
	return seen
}

// Extract copies the sub-grammar reachable from root into a fresh Grammar
// whose start symbol is the image of root. Labels are preserved. The second
// result maps old nonterminal symbols to new ones (only reachable entries
// are present).
func (g *Grammar) Extract(root Sym) (*Grammar, map[Sym]Sym) {
	seen := g.Reachable(root)
	out := New()
	remap := make(map[Sym]Sym)
	for i, ok := range seen {
		if !ok {
			continue
		}
		old := Sym(NumTerminals + i)
		nn := out.NewNT(g.names[i])
		out.labels[out.ntIndex(nn)] = g.labels[i]
		remap[old] = nn
	}
	var buf []Sym
	for i, ok := range seen {
		if !ok {
			continue
		}
		nlhs := remap[Sym(NumTerminals+i)]
		// Interned regions are pure-terminal, hence invariant under
		// nonterminal remapping: share them by reference instead of copying
		// the run into the new slab.
		for _, r := range g.refs[i] {
			if r.off < 0 {
				out.addRef(nlhs, r)
				continue
			}
			buf = remapRHS(buf[:0], g.refSyms(r), remap)
			out.Add(nlhs, buf...)
		}
	}
	out.SetStart(remap[root])
	return out, remap
}

// remapRHS appends rhs to dst with nonterminals translated through remap
// (terminals pass through unchanged).
func remapRHS(dst, rhs []Sym, remap map[Sym]Sym) []Sym {
	for _, s := range rhs {
		if IsTerminal(s) {
			dst = append(dst, s)
		} else {
			dst = append(dst, remap[s])
		}
	}
	return dst
}

// ReplaceWithMarker returns a copy of the sub-grammar reachable from root in
// which every right-hand-side occurrence of x is replaced by the reserved
// marker terminal t_X, and x's own productions are removed (paper §3.2.1,
// the R_t construction). The returned grammar's start is the image of root.
func (g *Grammar) ReplaceWithMarker(root, x Sym) *Grammar {
	sub, remap := g.Extract(root)
	nx, ok := remap[x]
	if !ok {
		return sub // x not reachable: nothing to replace
	}
	sub.clearProds(nx)
	// Interned regions are pure-terminal and cannot contain nx; only
	// slab-resident rows can need rewriting. The replacement run is appended
	// to the slab and the row repointed.
	for i := range sub.refs {
		for ri, r := range sub.refs[i] {
			if r.off < 0 {
				continue
			}
			rhs := sub.refSyms(r)
			hit := false
			for _, s := range rhs {
				if s == nx {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
			off := len(sub.syms)
			for _, s := range rhs {
				if s == nx {
					s = MarkerSym
				}
				sub.syms = append(sub.syms, s)
			}
			sub.refs[i][ri] = prodRef{off: int32(off), n: r.n}
		}
	}
	return sub
}

// SCCs computes the strongly connected components of the nonterminal
// dependency graph (X depends on Y when Y occurs in a RHS of X) using
// Tarjan's algorithm, returned in reverse topological order (callees before
// callers). Each component is a slice of nonterminal symbols.
func (g *Grammar) SCCs() [][]Sym {
	n := g.NumNTs()
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var comps [][]Sym
	next := 0

	// Iterative Tarjan to avoid deep recursion on large grammars.
	type frame struct {
		v    int
		prod int
		sym  int
	}
	for v0 := 0; v0 < n; v0++ {
		if index[v0] != -1 {
			continue
		}
		var frames []frame
		push := func(v int) {
			index[v] = next
			low[v] = next
			next++
			stack = append(stack, v)
			onStack[v] = true
			frames = append(frames, frame{v: v})
		}
		push(v0)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			advanced := false
			for f.prod < g.numProdsAt(f.v) {
				rhs := g.rhsAt(f.v, f.prod)
				for f.sym < len(rhs) {
					s := rhs[f.sym]
					f.sym++
					if IsTerminal(s) {
						continue
					}
					w := g.ntIndex(s)
					if index[w] == -1 {
						push(w)
						advanced = true
						break
					} else if onStack[w] && index[w] < low[f.v] {
						low[f.v] = index[w]
					}
				}
				if advanced {
					break
				}
				f.prod++
				f.sym = 0
			}
			if advanced {
				continue
			}
			// finished v
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []Sym
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, Sym(NumTerminals+w))
					if w == v {
						break
					}
				}
				comps = append(comps, comp)
			}
		}
	}
	return comps
}

// InCycle reports, per nonterminal index, whether the nonterminal can derive
// a sentential form containing itself (i.e., it sits in a nontrivial SCC or
// has a self-referential production).
func (g *Grammar) InCycle() []bool {
	out := make([]bool, g.NumNTs())
	for _, comp := range g.SCCs() {
		if len(comp) > 1 {
			for _, s := range comp {
				out[g.ntIndex(s)] = true
			}
			continue
		}
		i := g.ntIndex(comp[0])
		for pi := 0; pi < g.numProdsAt(i); pi++ {
			for _, s := range g.rhsAt(i, pi) {
				if s == comp[0] {
					out[i] = true
				}
			}
		}
	}
	return out
}
