package fst

import (
	"sqlciv/internal/budget"
	"sqlciv/internal/grammar"
)

// imageItemBytes estimates the footprint of one discovered (x, p, q) item:
// the record, its index-list entries, the fresh nonterminal, and its
// production bookkeeping.
const imageItemBytes = 96

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
// The worklist construction is superlinear in the transducer's states and
// b meters it cooperatively: one step per discovered item and per worklist
// pop, plus a memory estimate per item. On exhaustion b panics with
// *budget.Exceeded (recovered at the unit boundary); g may then hold a
// partial construction and must be discarded. A nil b is unlimited.
//
// The construction is the dominant allocator of phase 1, so all of its
// bookkeeping is flat: rules are fixed-width records indexed by CSR buckets,
// item membership is insertion-ordered index lists per (local, state), and
// every production is deduplicated through one exact grammar.ProdSet keyed
// by (item, rhs), in time independent of the item's production count.
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

	// ---- snapshot + normalize the sub-grammar ---------------------------
	// Same flat-rule normal form as grammar.IntersectIntoT: every rule is a
	// fixed-width record with at most two symbols (>=0 local NT, <0 terminal
	// ^(-1-sym)).
	type rule struct {
		lhs  int32
		a, c int32
		n    int8
	}
	encTerm := func(s grammar.Sym) int32 { return -1 - int32(s) }
	decTerm := func(v int32) grammar.Sym { return grammar.Sym(-1 - v) }

	localOf := make([]int32, g.NumNTs())
	for i := range localOf {
		localOf[i] = -1
	}
	var localSyms []grammar.Sym
	newLocal := func(orig grammar.Sym) int32 {
		id := int32(len(localSyms))
		localSyms = append(localSyms, orig)
		if orig >= 0 {
			localOf[int(orig)-grammar.NumTerminals] = id
		}
		return id
	}
	var rules []rule
	var cur []int32
	newLocal(root)
	ntStack := []grammar.Sym{root}
	for len(ntStack) > 0 {
		nt := ntStack[len(ntStack)-1]
		ntStack = ntStack[:len(ntStack)-1]
		for pi := 0; pi < g.NumProdsOf(nt); pi++ {
			rhs := g.Rhs(nt, pi)
			for _, s := range rhs {
				if !grammar.IsTerminal(s) && localOf[int(s)-grammar.NumTerminals] < 0 {
					newLocal(s)
					ntStack = append(ntStack, s)
				}
			}
			lhs := localOf[int(nt)-grammar.NumTerminals]
			cur = cur[:0]
			for _, s := range rhs {
				if grammar.IsTerminal(s) {
					cur = append(cur, encTerm(s))
				} else {
					cur = append(cur, localOf[int(s)-grammar.NumTerminals])
				}
			}
			w := cur
			for len(w) > 2 {
				helper := newLocal(-1)
				rules = append(rules, rule{lhs: lhs, a: w[0], c: helper, n: 2})
				lhs = helper
				w = w[1:]
			}
			switch len(w) {
			case 0:
				rules = append(rules, rule{lhs: lhs, n: 0})
			case 1:
				rules = append(rules, rule{lhs: lhs, a: w[0], n: 1})
			default:
				rules = append(rules, rule{lhs: lhs, a: w[0], c: w[1], n: 2})
			}
		}
	}
	// Terminal locals so binary joins are NT-NT only.
	termLocal := make([]int32, grammar.NumTerminals)
	for i := range termLocal {
		termLocal[i] = -1
	}
	for ri := 0; ri < len(rules); ri++ {
		if rules[ri].n != 2 {
			continue
		}
		for k := 0; k < 2; k++ {
			v := rules[ri].a
			if k == 1 {
				v = rules[ri].c
			}
			if v >= 0 {
				continue
			}
			tm := decTerm(v)
			id := termLocal[int(tm)]
			if id < 0 {
				id = newLocal(-1)
				termLocal[int(tm)] = id
				rules = append(rules, rule{lhs: id, a: encTerm(tm), n: 1})
			}
			if k == 0 {
				rules[ri].a = id
			} else {
				rules[ri].c = id
			}
		}
	}
	nLocal := len(localSyms)

	var epsLHS []int32
	unitT := make([][]int32, grammar.NumTerminals)
	unitNTCnt := make([]int32, nLocal+1)
	binFirstCnt := make([]int32, nLocal+1)
	binSecondCnt := make([]int32, nLocal+1)
	for _, r := range rules {
		switch r.n {
		case 0:
			epsLHS = append(epsLHS, r.lhs)
		case 1:
			if r.a < 0 {
				tm := decTerm(r.a)
				unitT[tm] = append(unitT[tm], r.lhs)
			} else {
				unitNTCnt[r.a]++
			}
		case 2:
			binFirstCnt[r.a]++
			binSecondCnt[r.c]++
		}
	}
	prefix := func(cnt []int32) []int32 {
		sum := int32(0)
		for i, n := range cnt {
			cnt[i] = sum
			sum += n
		}
		return make([]int32, sum)
	}
	unitNTIdx := prefix(unitNTCnt)
	binFirstIdx := prefix(binFirstCnt)
	binSecondIdx := prefix(binSecondCnt)
	for ri, r := range rules {
		switch r.n {
		case 1:
			if r.a >= 0 {
				unitNTIdx[unitNTCnt[r.a]] = int32(ri)
				unitNTCnt[r.a]++
			}
		case 2:
			binFirstIdx[binFirstCnt[r.a]] = int32(ri)
			binFirstCnt[r.a]++
			binSecondIdx[binSecondCnt[r.c]] = int32(ri)
			binSecondCnt[r.c]++
		}
	}
	bucket := func(idx, cnt []int32, x int32) []int32 {
		start := int32(0)
		if x > 0 {
			start = cnt[x-1]
		}
		return idx[start:cnt[x]]
	}

	// ---- bottom-up worklist over items (x, p, q) -------------------------
	// Item (x,p,q): some string derivable from x can be consumed starting at
	// p (after input-epsilon moves) with the last consuming edge ending
	// exactly at q; for nullable x, p == q. Left epsilon closures are folded
	// into terminal items; the right-edge closure is applied once at the
	// root.
	type itemRec struct {
		x    int32
		p, q int32
		nt   grammar.Sym
	}
	var items []itemRec
	byStart := make([][][]int32, nLocal) // x -> p -> item indices
	byEnd := make([][][]int32, nLocal)   // x -> q -> item indices
	prods := grammar.NewProdSet(g)       // every production added to an item

	findItem := func(x, p, q int32) int32 {
		rows := byStart[x]
		if rows == nil {
			return -1
		}
		for _, idx := range rows[p] {
			if items[idx].q == q {
				return idx
			}
		}
		return -1
	}

	var work []int32
	discover := func(x, p, q int32, rhs []grammar.Sym) {
		idx := findItem(x, p, q)
		if idx < 0 {
			b.Step(1)
			b.Grow(imageItemBytes)
			name := ""
			orig := localSyms[x]
			if orig >= 0 {
				name = g.RawName(orig)
			}
			nt := g.NewNT(name)
			if orig >= 0 {
				g.TaintIf(orig, nt)
			}
			idx = int32(len(items))
			items = append(items, itemRec{x: x, p: p, q: q, nt: nt})
			if byStart[x] == nil {
				byStart[x] = make([][]int32, nq)
				byEnd[x] = make([][]int32, nq)
			}
			byStart[x][p] = append(byStart[x][p], idx)
			byEnd[x][q] = append(byEnd[x][q], idx)
			work = append(work, idx)
		}
		prods.Add(items[idx].nt, rhs)
	}

	// Seed epsilon rules.
	for _, lhs := range epsLHS {
		for p := 0; p < nq; p++ {
			discover(lhs, int32(p), int32(p), nil)
		}
	}
	// Seed terminals: consuming edges indexed by input byte, visited in
	// ascending byte order so construction is deterministic.
	var consuming [256][]Edge
	var edgeFrom [256][]int32
	for s := 0; s < nq; s++ {
		for _, e := range t.edges[s] {
			if e.In != EpsIn {
				consuming[e.In] = append(consuming[e.In], e)
				edgeFrom[e.In] = append(edgeFrom[e.In], int32(s))
			}
		}
	}
	var rhsBuf []grammar.Sym
	for tm := 0; tm < 256; tm++ { // the marker terminal has no transduction
		lhss := unitT[tm]
		if len(lhss) == 0 {
			continue
		}
		edges := consuming[tm]
		froms := edgeFrom[tm]
		for ei, e := range edges {
			src := int(froms[ei])
			for p := 0; p < nq; p++ {
				if !epsReach[p*nq+src] {
					continue
				}
				rhsBuf = rhsBuf[:0]
				rhsBuf = append(rhsBuf, epsNT(p, src))
				for _, c := range e.Out {
					rhsBuf = append(rhsBuf, grammar.T(c))
				}
				for _, lhs := range lhss {
					discover(lhs, int32(p), int32(e.To), rhsBuf)
				}
			}
		}
	}

	var pair [2]grammar.Sym
	for len(work) > 0 {
		b.Step(1)
		idx := work[len(work)-1]
		work = work[:len(work)-1]
		it := items[idx]
		ynt := it.nt
		for _, ri := range bucket(unitNTIdx, unitNTCnt, it.x) {
			pair[0] = ynt
			discover(rules[ri].lhs, it.p, it.q, pair[:1])
		}
		for _, ri := range bucket(binFirstIdx, binFirstCnt, it.x) {
			bb := rules[ri].c
			if byStart[bb] == nil {
				continue
			}
			for _, bidx := range byStart[bb][it.q] {
				bit := items[bidx]
				pair[0], pair[1] = ynt, bit.nt
				discover(rules[ri].lhs, it.p, bit.q, pair[:2])
			}
		}
		for _, ri := range bucket(binSecondIdx, binSecondCnt, it.x) {
			aa := rules[ri].a
			if byEnd[aa] == nil {
				continue
			}
			for _, aidx := range byEnd[aa][it.p] {
				ait := items[aidx]
				pair[0], pair[1] = ait.nt, ynt
				discover(rules[ri].lhs, ait.p, it.q, pair[:2])
			}
		}
	}

	prods.Release()

	// ---- root: right-edge epsilon closure to accepting states -----------
	rootLocal := localOf[int(root)-grammar.NumTerminals]
	newRoot := grammar.Sym(-1)
	q0 := int32(t.start)
	if byStart[rootLocal] != nil {
		for _, ridx := range byStart[rootLocal][q0] {
			q := items[ridx].q
			for f := 0; f < nq; f++ {
				if !t.accept[f] || !epsReach[int(q)*nq+f] {
					continue
				}
				if newRoot < 0 {
					newRoot = g.NewNT(g.RawName(root))
					g.TaintIf(root, newRoot)
				}
				rhs := []grammar.Sym{items[ridx].nt, epsNT(int(q), f)}
				for _, c := range t.finalOut[f] {
					rhs = append(rhs, grammar.T(c))
				}
				g.Add(newRoot, rhs...)
			}
		}
	}
	if newRoot < 0 {
		return 0, false
	}
	return newRoot, true
}
