package grammar

import (
	"sqlciv/internal/automata"
	"sqlciv/internal/budget"
	"sqlciv/internal/obs"
)

// IntersectInto computes the intersection of the context-free language
// rooted at root with the regular language of d, materializing the result
// grammar into g itself and returning its fresh root nonterminal. It
// implements the paper's Figure 7: a worklist CFL-reachability construction
// over normalized (|rhs| ≤ 2) rules, with TAINTIF propagating the direct and
// indirect labels from each original nonterminal X onto every X_{ij}.
//
// All bookkeeping is flat: local nonterminal ids are dense, the discovered
// items (X, i, j) live in one record array reached through per-(X, i) and
// per-(X, j) index lists, and every production the construction adds is
// deduplicated through one exact ProdSet keyed by (item, rhs), so an item's
// cost does not grow with the number of productions it already has.
//
// The boolean result reports whether the intersection is nonempty; when it
// is empty the returned symbol is invalid and must not be used.
func IntersectInto(g *Grammar, root Sym, d *automata.DFA) (Sym, bool) {
	return IntersectIntoT(g, root, d, nil, nil)
}

// intersectItemBytes estimates the footprint of one discovered (X, i, j)
// item: the record, its index-list entries, the fresh nonterminal, and its
// production bookkeeping.
const intersectItemBytes = 96

// IntersectIntoT is IntersectInto metered by b and observed by sp. The
// worklist construction is worst-case O(|R|·|Q|³) and b bounds it
// cooperatively — one step per discovered item and per worklist pop, plus a
// memory estimate per item. On exhaustion b panics with *budget.Exceeded
// (recovered at the unit boundary); g may then hold a partial construction
// and must be discarded. A nil b is unlimited.
//
// The discovered-item and normalized-rule totals flush onto sp when the
// construction finishes (counters "intersect.items", "intersect.rules").
// Like the budget probes, the hot loop touches no tracer state — each
// discovered item is pushed and popped exactly once, so the final item
// count is the worklist traffic. A nil sp records nothing.
func IntersectIntoT(g *Grammar, root Sym, d *automata.DFA, b *budget.Budget, sp *obs.Span) (Sym, bool) {
	nq := d.NumStates()

	// ---- snapshot + NORMALIZE ----------------------------------------
	// Flat rule records over local ids: 0..nLocal-1 nonterminals. localOf
	// maps g's nonterminal indices (at entry) to local ids. After
	// normalization every rule has at most two symbols, so the whole rule
	// set is one flat record array — no per-rule heap slices.
	type rule struct {
		lhs  int32
		a, c int32 // local symbol: >=0 local NT id, <0 encodes terminal ^(-1-sym)
		n    int8
	}
	encTerm := func(s Sym) int32 { return -1 - int32(s) }
	isLocalTerm := func(v int32) bool { return v < 0 }
	decTerm := func(v int32) Sym { return Sym(-1 - v) }

	localOf := make([]int32, g.NumNTs()) // -1 = not yet discovered
	for i := range localOf {
		localOf[i] = -1
	}
	var localSyms []Sym // local id -> original NT symbol, or -1 for helpers
	newLocal := func(orig Sym) int32 {
		id := int32(len(localSyms))
		localSyms = append(localSyms, orig)
		if orig >= 0 {
			localOf[int(orig)-NumTerminals] = id
		}
		return id
	}

	var rules []rule
	var cur []int32 // reused normalization scratch
	stack := []Sym{root}
	newLocal(root)
	for len(stack) > 0 {
		nt := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for pi := 0; pi < g.NumProdsOf(nt); pi++ {
			rhs := g.Rhs(nt, pi)
			for _, s := range rhs {
				if !IsTerminal(s) && localOf[int(s)-NumTerminals] < 0 {
					newLocal(s)
					stack = append(stack, s)
				}
			}
			// normalize to length <= 2 with helper locals
			lhs := localOf[int(nt)-NumTerminals]
			cur = cur[:0]
			for _, s := range rhs {
				if IsTerminal(s) {
					cur = append(cur, encTerm(s))
				} else {
					cur = append(cur, localOf[int(s)-NumTerminals])
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

	// Replace terminals inside binary rules by synthetic terminal locals so
	// the join step only ever combines nonterminal items.
	termLocal := make([]int32, NumTerminals)
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
			if !isLocalTerm(v) {
				continue
			}
			t := decTerm(v)
			id := termLocal[int(t)]
			if id < 0 {
				id = newLocal(-1)
				termLocal[int(t)] = id
				rules = append(rules, rule{lhs: id, a: encTerm(t), n: 1})
			}
			if k == 0 {
				rules[ri].a = id
			} else {
				rules[ri].c = id
			}
		}
	}
	nLocal := len(localSyms)

	// Index rules by role, as CSR lists of rule indices — counting pass,
	// prefix sums, fill pass. Bucket order matches the rule array, exactly
	// like the append-built lists these replace.
	var epsLHS []int32
	unitT := make([][]int32, NumTerminals) // terminal t -> lhs list: X -> t
	unitNTCnt := make([]int32, nLocal+1)   // by rhs[0] local NT: X -> Y
	binFirstCnt := make([]int32, nLocal+1) // by rhs[0]
	binSecondCnt := make([]int32, nLocal+1)
	for _, r := range rules {
		switch r.n {
		case 0:
			epsLHS = append(epsLHS, r.lhs)
		case 1:
			if isLocalTerm(r.a) {
				t := decTerm(r.a)
				unitT[t] = append(unitT[t], r.lhs)
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
		for i, c := range cnt {
			cnt[i] = sum
			sum += c
		}
		return make([]int32, sum)
	}
	unitNTIdx := prefix(unitNTCnt)
	binFirstIdx := prefix(binFirstCnt)
	binSecondIdx := prefix(binSecondCnt)
	for ri, r := range rules {
		switch r.n {
		case 1:
			if !isLocalTerm(r.a) {
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
	// After the fill pass cnt[x] is the end offset of x's bucket and
	// cnt[x-1] its start; bucket x therefore reads cnt-relative.
	bucket := func(idx, cnt []int32, x int32) []int32 {
		start := int32(0)
		if x > 0 {
			start = cnt[x-1]
		}
		return idx[start:cnt[x]]
	}

	// ---- worklist ------------------------------------------------------
	// item: local NT x with DFA state span (i, j). Each discovered item is
	// one record; spanIdx[x][i] and endIdx[x][j] list record indices in
	// insertion order (the join iteration order feeds the discover sequence,
	// which fixes production order downstream), so membership tests are
	// short scans bounded by the DFA state count.
	type itemRec struct {
		x    int32
		i, j int32
		nt   Sym
	}
	var items []itemRec
	spanIdx := make([][][]int32, nLocal) // x -> i -> item indices
	endIdx := make([][][]int32, nLocal)  // x -> j -> item indices
	prods := NewProdSet(g)               // every production added to an item

	findItem := func(x, i, j int32) int32 {
		rows := spanIdx[x]
		if rows == nil {
			return -1
		}
		for _, idx := range rows[i] {
			if items[idx].j == j {
				return idx
			}
		}
		return -1
	}

	var work []int32
	var addBuf [2]Sym
	discover := func(x, i, j int32, s0, s1 Sym, nsyms int) {
		idx := findItem(x, i, j)
		if idx < 0 {
			b.Step(1)
			b.Grow(intersectItemBytes)
			name := ""
			orig := localSyms[x]
			if orig >= 0 {
				name = g.RawName(orig)
			}
			nt := g.NewNT(name)
			if orig >= 0 {
				g.TaintIf(orig, nt) // TAINTIF(X, X_ij)
			}
			idx = int32(len(items))
			items = append(items, itemRec{x: x, i: i, j: j, nt: nt})
			if spanIdx[x] == nil {
				spanIdx[x] = make([][]int32, nq)
				endIdx[x] = make([][]int32, nq)
			}
			spanIdx[x][i] = append(spanIdx[x][i], idx)
			endIdx[x][j] = append(endIdx[x][j], idx)
			work = append(work, idx)
		}
		addBuf[0], addBuf[1] = s0, s1
		prods.Add(items[idx].nt, addBuf[:nsyms])
	}

	// Seed: X -> eps gives (X,i,i) for all i.
	for _, lhs := range epsLHS {
		for q := 0; q < nq; q++ {
			discover(lhs, int32(q), int32(q), -1, -1, 0)
		}
	}
	// Seed: X -> t gives (X, i, d(i,t)). Terminals in the same byte class
	// share the same successor column; build each class's q→d(q,t) table
	// lazily and reuse it for every terminal of the class. Seeds are
	// discovered t ascending, q ascending, which fixes item and nonterminal
	// numbering.
	classTo := make([][]int32, d.NumClasses())
	for t := 0; t < NumTerminals; t++ {
		lhss := unitT[t]
		if len(lhss) == 0 {
			continue
		}
		cls := d.ClassOf(t)
		col := classTo[cls]
		if col == nil {
			col = make([]int32, nq)
			for q := 0; q < nq; q++ {
				col[q] = int32(d.StepClass(q, cls))
			}
			classTo[cls] = col
		}
		for q := 0; q < nq; q++ {
			for _, lhs := range lhss {
				discover(lhs, int32(q), col[q], Sym(t), -1, 1)
			}
		}
	}

	for len(work) > 0 {
		b.Step(1)
		idx := work[len(work)-1]
		work = work[:len(work)-1]
		it := items[idx]
		ynt := it.nt
		// unit rules X -> Y
		for _, ri := range bucket(unitNTIdx, unitNTCnt, it.x) {
			discover(rules[ri].lhs, it.i, it.j, ynt, -1, 1)
		}
		// binary rules X -> Y B with Y = it
		for _, ri := range bucket(binFirstIdx, binFirstCnt, it.x) {
			bb := rules[ri].c
			if spanIdx[bb] == nil {
				continue
			}
			for _, bidx := range spanIdx[bb][it.j] {
				bit := items[bidx]
				discover(rules[ri].lhs, it.i, bit.j, ynt, bit.nt, 2)
			}
		}
		// binary rules X -> A Y with Y = it
		for _, ri := range bucket(binSecondIdx, binSecondCnt, it.x) {
			aa := rules[ri].a
			if endIdx[aa] == nil {
				continue
			}
			for _, aidx := range endIdx[aa][it.i] {
				ait := items[aidx]
				discover(rules[ri].lhs, ait.i, it.j, ait.nt, ynt, 2)
			}
		}
	}

	prods.Release()
	sp.Count("intersect.items", int64(len(items)))
	sp.Count("intersect.rules", int64(len(rules)))

	// ---- root ----------------------------------------------------------
	rootLocal := localOf[int(root)-NumTerminals]
	newRoot := Sym(-1)
	q0 := int32(d.Start())
	for q := 0; q < nq; q++ {
		if !d.IsAccept(q) {
			continue
		}
		if idx := findItem(rootLocal, q0, int32(q)); idx >= 0 {
			if newRoot < 0 {
				newRoot = g.NewNT(g.RawName(root))
				g.TaintIf(root, newRoot)
			}
			g.Add(newRoot, items[idx].nt)
		}
	}
	if newRoot < 0 {
		return 0, false
	}
	return newRoot, true
}

// IntersectEmpty reports whether L(root) ∩ L(d) is empty, without keeping
// the constructed grammar (it still runs the Figure 7 worklist on a scratch
// copy so g is left unchanged).
func IntersectEmpty(g *Grammar, root Sym, d *automata.DFA) bool {
	return IntersectEmptyT(g, root, d, nil, nil)
}

// IntersectEmptyT is IntersectEmpty metered by b and observed by sp.
func IntersectEmptyT(g *Grammar, root Sym, d *automata.DFA, b *budget.Budget, sp *obs.Span) bool {
	scratch, remap := g.Extract(root)
	_, ok := IntersectIntoT(scratch, remap[root], d, b, sp)
	return !ok
}

// IntersectWitness returns a shortest string in L(root) ∩ L(d), if any.
func IntersectWitness(g *Grammar, root Sym, d *automata.DFA) (string, bool) {
	return IntersectWitnessT(g, root, d, nil, nil)
}

// IntersectWitnessT is IntersectWitness metered by b and observed by sp.
func IntersectWitnessT(g *Grammar, root Sym, d *automata.DFA, b *budget.Budget, sp *obs.Span) (string, bool) {
	scratch, remap := g.Extract(root)
	nr, ok := IntersectIntoT(scratch, remap[root], d, b, sp)
	if !ok {
		return "", false
	}
	return scratch.WitnessString(nr)
}
