package grammar

import (
	"sync"

	"sqlciv/internal/budget"
)

// Slice compaction. The policy cascade's fixpoints (relations, contexts,
// emptiness) are language- and label-level properties of the hotspot's query
// grammar, so they may run on any smaller grammar with the same language and
// the same labeled nonterminals. CompactSlice produces that smaller grammar:
// it trims productions that can never complete, collapses unit/alias chains,
// and inlines single-production nonterminals so runs of terminal symbols end
// up packed into one production. On the Table 1 subjects this shrinks the
// ~70k-production per-hotspot slices by an order of magnitude before the
// per-DFA relation fixpoints run over them.
//
// Witness extraction and the structural derivability check (check 5) are NOT
// language-level — witnesses tie-break on derivation-tree size and
// derivability applies heuristic caps — so the policy layer keeps running
// those on the original slice. Compaction therefore never changes a report.

// CompactStats summarizes one CompactSlice run.
type CompactStats struct {
	// NTsIn / ProdsIn census the input sub-grammar reachable from root.
	NTsIn, ProdsIn int
	// NTsOut / ProdsOut census the compacted grammar (including the
	// synthetic super-root, when one was needed).
	NTsOut, ProdsOut int
	// DroppedProds counts productions removed because a right-hand-side
	// nonterminal derives nothing, plus duplicate productions.
	DroppedProds int
	// InlinedNTs counts nonterminals eliminated by unit/alias collapse and
	// chain inlining.
	InlinedNTs int
	// Passes is the number of collapse passes run before the fixpoint.
	Passes int
}

// Compacted is the result of CompactSlice.
type Compacted struct {
	// G is the compacted grammar.
	G *Grammar
	// Root is the image of the requested root in G.
	Root Sym
	// Top is the root that reaches all of G: Root itself, or a synthetic
	// unlabeled super-root whose alternatives are Root plus every surviving
	// labeled nonterminal that production trimming disconnected from Root.
	// G.Fingerprint(Top) thus covers every nonterminal the policy cascade
	// can report on; the golden corpus fixture pins it. It is no verdict
	// key: slices that compact to one form can differ in witnesses and in
	// check 5, which run on the original slice.
	Top Sym
	// Fwd maps surviving input nonterminals to their images in G. Labeled
	// productive nonterminals always survive; eliminated (inlined or
	// unproductive) nonterminals have no entry.
	Fwd map[Sym]Sym
}

// inlineExpandMax bounds duplication: a nonterminal occurring more than once
// is inlined only when its full expansion stays this short. Single-occurrence
// nonterminals always inline — that strictly shrinks the grammar.
const inlineExpandMax = 4

// maxCompactPasses caps the collapse loop; each pass only fires when the
// previous one created new single-production nonterminals via deduplication,
// which converges in practice within two.
const maxCompactPasses = 4

// compactScratch is CompactSlice's pooled working state. The production
// rows under rewrite are {off, len} references into the scratch symbol slab
// (one allocation-flat copy of the reachable slice), and every fixpoint
// array is reused across per-hotspot compactions — acquisition resets
// everything, so state can never leak from one hotspot's session into the
// next.
type compactScratch struct {
	syms    []Sym       // scratch RHS slab; rewrites append new runs
	refSlab []prodRef   // contiguous backing for the initial rows
	rows    [][]prodRef // per-NT production rows (nil = not reachable)
	minLens []int64
	mark    []bool
	keep    []bool
	reach   []bool
	state   []byte
	occ     []int32
	memo    [][]Sym
	stack   []int32
	buf     []Sym
}

var compactPool = sync.Pool{New: func() any { return new(compactScratch) }}

func (ws *compactScratch) acquire(n int) {
	ws.syms = ws.syms[:0]
	ws.refSlab = ws.refSlab[:0]
	ws.buf = ws.buf[:0]
	ws.stack = ws.stack[:0]
	if cap(ws.rows) < n {
		ws.rows = make([][]prodRef, n)
		ws.minLens = make([]int64, n)
		ws.mark = make([]bool, n)
		ws.keep = make([]bool, n)
		ws.reach = make([]bool, n)
		ws.state = make([]byte, n)
		ws.occ = make([]int32, n)
		ws.memo = make([][]Sym, n)
		return
	}
	ws.rows = ws.rows[:n]
	ws.minLens = ws.minLens[:n]
	ws.mark = ws.mark[:n]
	ws.keep = ws.keep[:n]
	ws.reach = ws.reach[:n]
	ws.state = ws.state[:n]
	ws.occ = ws.occ[:n]
	ws.memo = ws.memo[:n]
	clear(ws.rows)
	clear(ws.mark)
	clear(ws.keep)
	clear(ws.reach)
	clear(ws.state)
	clear(ws.memo)
}

// rhs resolves a scratch row reference (offsets here are always local).
func (ws *compactScratch) rhs(r prodRef) []Sym {
	return ws.syms[r.off : r.off+r.n]
}

// place appends rhs to the scratch slab and returns its reference.
func (ws *compactScratch) place(rhs []Sym) prodRef {
	off := len(ws.syms)
	ws.syms = append(ws.syms, rhs...)
	return prodRef{off: int32(off), n: int32(len(rhs))}
}

// CompactSlice compacts the sub-grammar reachable from root, preserving its
// language exactly and its labeled productive nonterminals individually
// (same label, same raw name, same language per nonterminal). The result is
// deterministic and commutes with α-renaming and production permutation of
// the input, so Fingerprint(Top) of the compacted grammar identifies all
// that the cascade's fixpoints compute over it (not the verdict: witnesses
// and check 5 run on the original slice). Work is metered against b.
func CompactSlice(g *Grammar, root Sym, b *budget.Budget) (*Compacted, CompactStats) {
	n := g.NumNTs()
	idx := func(s Sym) int { return int(s) - NumTerminals }
	rootI := idx(root)
	var stats CompactStats

	ws := compactPool.Get().(*compactScratch)
	defer compactPool.Put(ws)
	ws.acquire(n)

	// Flat working copy of the reachable production rows; rows are rewritten
	// in place across passes and materialized into a fresh Grammar at the
	// end. Rows shrink or are rewritten element-wise, never grow, so they
	// can share one contiguous reference slab.
	g.ReachableInto(root, ws.reach)
	total := 0
	for i, ok := range ws.reach {
		if ok {
			total += g.numProdsAt(i)
		}
	}
	if cap(ws.refSlab) < total {
		ws.refSlab = make([]prodRef, total)
	} else {
		ws.refSlab = ws.refSlab[:total]
	}
	at := 0
	for i, ok := range ws.reach {
		if !ok {
			continue
		}
		np := g.numProdsAt(i)
		row := ws.refSlab[at : at+np : at+np]
		at += np
		for pi := 0; pi < np; pi++ {
			row[pi] = ws.place(g.rhsAt(i, pi))
		}
		ws.rows[i] = row
		stats.NTsIn++
		stats.ProdsIn += np
	}
	rows := ws.rows

	// Productivity trim: a production mentioning a nonterminal that derives
	// nothing can never complete; dropping it changes no language. An
	// unproductive nonterminal loses all its productions (its language is
	// empty either way) and is dropped from every survivor set below.
	// The emptiness fixpoint is restricted to the reachable slice — a
	// reachable nonterminal's shortest derivation only ever uses
	// nonterminals reachable from it — so compacting one hotspot of a large
	// page grammar never pays for the whole grammar.
	minLens := ws.minLens
	for i := range minLens {
		minLens[i] = -1
	}
	for changed := true; changed; {
		changed = false
		for i, ok := range ws.reach {
			if !ok {
				continue
			}
			for _, r := range rows[i] {
				total := int64(0)
				ok := true
				for _, s := range ws.rhs(r) {
					if IsTerminal(s) {
						total++
						continue
					}
					l := minLens[idx(s)]
					if l < 0 {
						ok = false
						break
					}
					total += l
				}
				if ok && (minLens[i] < 0 || total < minLens[i]) {
					minLens[i] = total
					changed = true
				}
			}
		}
	}
	productive := func(i int) bool { return minLens[i] >= 0 }
	for i := range rows {
		if rows[i] == nil {
			continue
		}
		if !productive(i) {
			stats.DroppedProds += len(rows[i])
			rows[i] = nil
			continue
		}
		kept := rows[i][:0]
		for _, r := range rows[i] {
			b.Step(1)
			ok := true
			for _, s := range ws.rhs(r) {
				if !IsTerminal(s) && !productive(idx(s)) {
					ok = false
					break
				}
			}
			if ok {
				kept = append(kept, r)
			} else {
				stats.DroppedProds++
			}
		}
		rows[i] = kept
	}

	mark := ws.mark
	memo := ws.memo
	state := ws.state
	occ := ws.occ
	for pass := 0; pass < maxCompactPasses; pass++ {
		stats.Passes = pass + 1
		changed := dedupProds(ws, &stats, b)

		// Mark collapse candidates: unlabeled, not the root, exactly one
		// production. Every marked nonterminal is replaced by its (unique)
		// expansion at every occurrence — unit/alias chains collapse and
		// terminal runs pack into the consuming production.
		for i := range occ {
			occ[i] = 0
		}
		for i := range rows {
			for _, r := range rows[i] {
				for _, s := range ws.rhs(r) {
					if !IsTerminal(s) {
						occ[idx(s)]++
					}
				}
			}
		}
		anyMark := false
		for i := range rows {
			mark[i] = rows[i] != nil && len(rows[i]) == 1 && g.labels[i] == 0 && i != rootI
			anyMark = anyMark || mark[i]
		}
		if anyMark {
			// Expansion must terminate: demote every mark on a cycle of the
			// marked→marked dependency subgraph. Cycle membership is a set
			// property, so the surviving mark set — and with it the compacted
			// shape — is independent of input numbering and traversal order.
			demoteMarkedCycles(ws, mark, idx)
		}
		anyMark = false
		for i := range mark {
			memo[i] = nil
			state[i] = 0
			anyMark = anyMark || mark[i]
		}
		if !anyMark {
			if !changed {
				break
			}
			continue
		}

		// Bottom-up expansion over the (now acyclic) marked subgraph. A
		// multi-occurrence nonterminal whose full expansion is long is
		// demoted rather than duplicated; the decision depends only on its
		// descendants' final status, so any evaluation order agrees.
		var expand func(i int) []Sym
		expand = func(i int) []Sym {
			if !mark[i] {
				return nil
			}
			if state[i] == 2 {
				return memo[i]
			}
			state[i] = 2
			rhs := ws.rhs(rows[i][0])
			out := make([]Sym, 0, len(rhs))
			for _, s := range rhs {
				if !IsTerminal(s) {
					j := idx(s)
					e := expand(j)
					if mark[j] {
						out = append(out, e...)
						continue
					}
				}
				out = append(out, s)
			}
			b.Step(int64(len(out)) + 1)
			if occ[i] > 1 && len(out) > inlineExpandMax {
				mark[i] = false
				return nil
			}
			memo[i] = out
			return out
		}
		for i := range mark {
			if mark[i] {
				expand(i)
			}
		}

		// Rewrite every surviving production, splicing the expansions into
		// fresh scratch-slab runs.
		for i := range rows {
			if rows[i] == nil || mark[i] {
				continue
			}
			for pi, r := range rows[i] {
				rhs := ws.rhs(r)
				hit := false
				for _, s := range rhs {
					if !IsTerminal(s) && mark[idx(s)] {
						hit = true
						break
					}
				}
				if !hit {
					continue
				}
				off := len(ws.syms)
				for _, s := range rhs {
					if !IsTerminal(s) && mark[idx(s)] {
						ws.syms = append(ws.syms, memo[idx(s)]...)
					} else {
						ws.syms = append(ws.syms, s)
					}
				}
				nr := prodRef{off: int32(off), n: int32(len(ws.syms) - off)}
				b.Step(int64(nr.n) + 1)
				rows[i][pi] = nr
			}
		}
		for i := range rows {
			if mark[i] {
				rows[i] = nil
				stats.InlinedNTs++
			}
		}
	}

	// Survivors: everything reachable from root or from a surviving labeled
	// nonterminal. Labeled productive nonterminals are kept even when the
	// productivity trim disconnected them from root — the cascade's checks
	// 1, 3, and 4 report on them regardless of whether they occur in a
	// complete query derivation, so their languages must survive.
	keep := ws.keep
	stack := ws.stack
	push := func(i int) {
		if !keep[i] {
			keep[i] = true
			stack = append(stack, int32(i))
		}
	}
	push(rootI)
	for i := range rows {
		if rows[i] != nil && g.labels[i] != 0 {
			push(i)
		}
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, r := range rows[i] {
			for _, s := range ws.rhs(r) {
				if !IsTerminal(s) {
					push(idx(s))
				}
			}
		}
	}
	ws.stack = stack[:0]

	out := New()
	fwd := make(map[Sym]Sym)
	for i, ok := range keep {
		if !ok {
			continue
		}
		nn := out.NewNT(g.names[i])
		out.labels[out.ntIndex(nn)] = g.labels[i]
		fwd[Sym(NumTerminals+i)] = nn
	}
	buf := ws.buf
	for i, ok := range keep {
		if !ok {
			continue
		}
		lhs := fwd[Sym(NumTerminals+i)]
		for _, r := range rows[i] {
			buf = remapRHS(buf[:0], ws.rhs(r), fwd)
			out.Add(lhs, buf...)
		}
	}
	ws.buf = buf[:0]
	croot := fwd[root]
	out.SetStart(croot)

	// Labeled survivors disconnected from root get a synthetic super-root so
	// one fingerprint covers everything the cascade can report on.
	top := croot
	fromRoot := out.Reachable(croot)
	var extras []Sym
	for i, ok := range keep {
		if ok && g.labels[i] != 0 {
			img := fwd[Sym(NumTerminals+i)]
			if !fromRoot[out.ntIndex(img)] {
				extras = append(extras, img)
			}
		}
	}
	if len(extras) > 0 {
		top = out.NewNT("")
		out.Add(top, croot)
		for _, x := range extras {
			out.Add(top, x)
		}
	}

	stats.NTsOut = out.NumNTs()
	stats.ProdsOut = out.NumProds()
	return &Compacted{G: out, Root: croot, Top: top, Fwd: fwd}, stats
}

// dedupProds removes duplicate right-hand sides per nonterminal (keeping the
// first occurrence) and reports whether anything changed. Duplicates arise
// from construction and, after inlining, from formerly distinct chains that
// collapse to the same packed production.
func dedupProds(ws *compactScratch, stats *CompactStats, b *budget.Budget) bool {
	// Below this rule count a quadratic scan with early exit beats hashing;
	// most nonterminals have a handful of productions and no duplicates.
	const smallDedup = 8
	changed := false
	var buckets map[uint64][]int32
	for i := range ws.rows {
		if len(ws.rows[i]) < 2 {
			continue
		}
		rules := ws.rows[i]
		kept := rules[:0]
		if len(rules) <= smallDedup {
			for _, r := range rules {
				b.Step(1)
				rhs := ws.rhs(r)
				dup := false
				for _, k := range kept {
					if sameRHS(ws.rhs(k), rhs) {
						dup = true
						break
					}
				}
				if dup {
					stats.DroppedProds++
					changed = true
					continue
				}
				kept = append(kept, r)
			}
			ws.rows[i] = kept
			continue
		}
		if buckets == nil {
			buckets = make(map[uint64][]int32, len(rules))
		} else {
			clear(buckets)
		}
		for _, r := range rules {
			b.Step(1)
			rhs := ws.rhs(r)
			h := uint64(colorOffset)
			for _, s := range rhs {
				h = mixColor(h, uint64(s))
			}
			dup := false
			for _, ki := range buckets[h] {
				if sameRHS(ws.rhs(kept[ki]), rhs) {
					dup = true
					break
				}
			}
			if dup {
				stats.DroppedProds++
				changed = true
				continue
			}
			buckets[h] = append(buckets[h], int32(len(kept)))
			kept = append(kept, r)
		}
		ws.rows[i] = kept
	}
	return changed
}

// demoteMarkedCycles clears mark for every nonterminal on a cycle of the
// marked→marked dependency subgraph (including self-loops), using an
// iterative Tarjan SCC pass restricted to marked nodes. Marks off a cycle
// are untouched: a chain hanging into a recursive nonterminal still inlines,
// its expansion simply stops at the unmarked cycle member.
func demoteMarkedCycles(ws *compactScratch, mark []bool, idx func(Sym) int) {
	n := len(mark)
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int32
	next := int32(0)
	succs := func(i int) []Sym { return ws.rhs(ws.rows[i][0]) }

	type frame struct {
		v   int32
		sym int
	}
	var frames []frame
	push := func(v int32) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		frames = append(frames, frame{v: v})
	}
	for v0 := 0; v0 < n; v0++ {
		if !mark[v0] || index[v0] != -1 {
			continue
		}
		push(int32(v0))
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			rhs := succs(int(f.v))
			advanced := false
			for f.sym < len(rhs) {
				s := rhs[f.sym]
				f.sym++
				if IsTerminal(s) {
					continue
				}
				w := int32(idx(s))
				if !mark[w] {
					continue
				}
				if index[w] == -1 {
					push(w)
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
			}
			if advanced {
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []int32
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				demote := len(comp) > 1
				if !demote {
					// Single-node component: demote only on a self-loop.
					for _, s := range succs(int(v)) {
						if !IsTerminal(s) && int32(idx(s)) == v {
							demote = true
							break
						}
					}
				}
				if demote {
					for _, w := range comp {
						mark[w] = false
					}
				}
			}
		}
	}
}
