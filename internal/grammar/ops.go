package grammar

import "math"

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
func (g *Grammar) Witness(nt Sym) ([]Sym, bool) {
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

// WitnessString is Witness rendered as a string (marker as "•").
func (g *Grammar) WitnessString(nt Sym) (string, bool) {
	w, ok := g.Witness(nt)
	if !ok {
		return "", false
	}
	return TermsToString(w), true
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
	sub.epoch++
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
