package fst

import (
	"sqlciv/internal/budget"
	"sqlciv/internal/grammar"
)

// ImageInto computes the image of the context-free language rooted at root
// under the transducer t, materializing the result into g and returning its
// fresh root nonterminal. This is the construction Minamide's string
// analysis uses to model string operations, extended (paper §3.1.2) to
// propagate the direct/indirect taint labels: every nonterminal X_{pq} of
// the image inherits X's labels, so tainted-substring boundaries survive the
// transduction (the FST analogue of Theorem 3.1).
//
// The boolean result reports whether the image is nonempty.
//
// The items (x, p, q) come from the Figure 7 worklist (grammar.Reach),
// which b meters as grammar.NewReach says; on exhaustion g may hold a
// partial construction and must be discarded.
//
// Item (x, p, q): some string derivable from x can be consumed starting at
// p (after input-epsilon moves) with the last consuming edge ending exactly
// at q; for nullable x, p == q. Left epsilon closures are folded into the
// terminal seeds; the right-edge closure is applied once at the root.
func ImageInto(g *grammar.Grammar, root grammar.Sym, t *FST, b *budget.Budget) (grammar.Sym, bool) {
	nq := t.NumStates()

	// ---- input-epsilon reachability and Eps-path nonterminals -----------
	// epsReach[p*nq+q] = q reachable from p via input-epsilon edges.
	epsReach := make([]bool, nq*nq)
	var stack []int
	for p := 0; p < nq; p++ {
		row := epsReach[p*nq : (p+1)*nq]
		row[p] = true
		stack = append(stack[:0], p)
		for len(stack) > 0 {
			s := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range t.edges[s] {
				if e.In == EpsIn && !row[e.To] {
					row[e.To] = true
					stack = append(stack, e.To)
				}
			}
		}
	}
	// epsNT(p,q) generates the outputs of input-epsilon paths p→q.
	epsNTs := make([]grammar.Sym, nq*nq)
	for i := range epsNTs {
		epsNTs[i] = -1
	}
	var epsNT func(p, q int) grammar.Sym
	epsNT = func(p, q int) grammar.Sym {
		if s := epsNTs[p*nq+q]; s >= 0 {
			return s
		}
		nt := g.NewNT("")
		epsNTs[p*nq+q] = nt
		if p == q {
			g.Add(nt)
		}
		for _, e := range t.edges[p] {
			if e.In == EpsIn && epsReach[e.To*nq+q] {
				rhs := make([]grammar.Sym, 0, len(e.Out)+1)
				for _, c := range e.Out {
					rhs = append(rhs, grammar.T(c))
				}
				rhs = append(rhs, epsNT(e.To, q))
				g.Add(nt, rhs...)
			}
		}
		return nt
	}

	// ---- the worklist, materialized as it runs --------------------------
	// A terminal seed of item (x, p, q) stands for x_pq → epsNT(p, src) out,
	// where a consuming edge src→q emits out: its payload is (p·nq+src, the
	// index of out among the distinct outputs), so seeds with equal
	// productions are one hyperedge. An ε seed's payload is -1.
	r := grammar.NewReach(g, root, nq, b)
	var outs [][]byte
	outIDs := map[string]int32{}
	r.Materialize(func(e grammar.Edge, rhs []grammar.Sym) []grammar.Sym {
		if e.A < 0 {
			return rhs
		}
		rhs = append(rhs, epsNTs[e.A])
		for _, c := range outs[e.C] {
			rhs = append(rhs, grammar.T(c))
		}
		return rhs
	})

	// Seed epsilon rules.
	for _, lhs := range r.EpsLHS() {
		for p := 0; p < nq; p++ {
			r.Seed(lhs, int32(p), int32(p), -1, 0)
		}
	}
	// Seed terminals: consuming edges indexed by input byte, visited in
	// ascending byte order so construction is deterministic.
	type srcEdge struct {
		Edge
		src int
	}
	var consuming [256][]srcEdge
	for s := 0; s < nq; s++ {
		for _, e := range t.edges[s] {
			if e.In != EpsIn {
				consuming[e.In] = append(consuming[e.In], srcEdge{e, s})
			}
		}
	}
	for tm := 0; tm < 256; tm++ { // the marker terminal has no transduction
		lhss := r.UnitLHS(grammar.Sym(tm))
		if len(lhss) == 0 {
			continue
		}
		for _, e := range consuming[tm] {
			out, ok := outIDs[string(e.Out)]
			if !ok {
				out = int32(len(outs))
				outIDs[string(e.Out)] = out
				outs = append(outs, e.Out)
			}
			for p := 0; p < nq; p++ {
				if epsReach[p*nq+e.src] {
					epsNT(p, e.src)
					for _, lhs := range lhss {
						r.Seed(lhs, int32(p), int32(e.To), int32(p*nq+e.src), out)
					}
				}
			}
		}
	}
	r.Run()

	// ---- root: right-edge epsilon closure to accepting states -----------
	newRoot := grammar.Sym(-1)
	q0 := int32(t.start)
	for it := int32(0); it < int32(r.NumItems()); it++ {
		x, p, q := r.Item(it)
		if x != 0 || p != q0 {
			continue // not an item of the root from the start state
		}
		for f := 0; f < nq; f++ {
			if !t.accept[f] || !epsReach[int(q)*nq+f] {
				continue
			}
			if newRoot < 0 {
				newRoot = g.NewNT(g.RawName(root))
				g.TaintIf(root, newRoot)
			}
			rhs := []grammar.Sym{r.NT(it), epsNT(int(q), f)}
			for _, c := range t.finalOut[f] {
				rhs = append(rhs, grammar.T(c))
			}
			g.Add(newRoot, rhs...)
		}
	}
	r.Release()
	if newRoot < 0 {
		return 0, false
	}
	return newRoot, true
}
