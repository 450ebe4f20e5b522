package grammar

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"sqlciv/internal/automata"
	"sqlciv/internal/budget"
	"sqlciv/internal/obs"
)

// relMemo counts RelsT's class-string memo traffic across the process:
// a hit means a terminal run's composed state map was copied from another
// run with the same class sequence instead of being recomposed.
var relMemo struct{ hits, misses atomic.Int64 }

// RelMemoStats reports the cumulative class-memo performance of terminal-run
// composition in RelsT: hits are runs whose composed state map was shared,
// misses are runs composed symbol by symbol.
func RelMemoStats() (hits, misses int64) {
	return relMemo.hits.Load(), relMemo.misses.Load()
}

// Relation-based grammar analyses over small DFAs. For a complete DFA D
// with at most 32 states, Rels computes for every nonterminal the
// reachability relation its language induces on D's states, and Contexts
// computes the D-states possible immediately before every nonterminal
// occurrence in a terminal derivation from a root. Together they answer,
// in one fixpoint each, the families of questions the policy checkers
// otherwise answer with one intersection grammar per nonterminal:
// emptiness of L(X) ∩ L(D) (via RelNonempty) and the syntactic context of
// X's occurrences (via Contexts).

// MaxRelStates is the largest DFA the relation representation supports.
const MaxRelStates = 32

// Rels returns rels[nt][p] = bitmask of states q such that some string of
// L(nt) drives d from p to q. Unproductive nonterminals have empty
// relations. Returns nil when d has more than MaxRelStates states. Callers
// running several fixpoints over one grammar build one RelPlan and call
// RelsT per DFA instead.
func Rels(g *Grammar, d *automata.DFA) [][]uint32 {
	return NewRelPlan(g, g.MinLens(), nil).RelsT(d, nil, nil)
}

// A RelPlan is the DFA-independent half of the relation fixpoint over one
// grammar: the productive-production snapshot, the production dependency
// index, and each right-hand side pre-segmented into nonterminal references
// and maximal terminal runs (deduplicated across productions). The policy
// cascade runs one fixpoint per check DFA over the same hotspot slice;
// building the plan once and calling RelsT per DFA does the snapshot work
// once instead of once per check.
type RelPlan struct {
	n          int        // nonterminal count
	prods      []planProd // productive productions
	segs       []planSeg  // CSR slab of all production segments
	dependents [][]int32  // NT index -> productions mentioning it
	runs       [][]Sym    // distinct maximal terminal runs

	// clsRuns caches the byte→class translation of runs per partition.
	// Check DFAs that induce the same partition (interned, so pointer
	// equality is partition equality) share one translation across the
	// cascade's several RelsT calls on this plan.
	mu      sync.Mutex
	clsRuns map[*automata.ByteClasses]*classRuns
}

// classRuns is the plan's terminal runs translated into the class ids of one
// byte-class partition: runs[i] is the class sequence of plan run i and
// keys[i] its canonical byte encoding — the memo key under which RelsT
// shares composed state maps between runs with equal class sequences.
type classRuns struct {
	runs [][]uint16
	keys []string
}

func (p *RelPlan) classRunsFor(bc *automata.ByteClasses) *classRuns {
	p.mu.Lock()
	defer p.mu.Unlock()
	if cr, ok := p.clsRuns[bc]; ok {
		return cr
	}
	cr := &classRuns{runs: make([][]uint16, len(p.runs)), keys: make([]string, len(p.runs))}
	var enc []byte
	for i, run := range p.runs {
		cls := make([]uint16, len(run))
		enc = enc[:0]
		for k, s := range run {
			c := uint16(bc.ClassOf(int(s)))
			cls[k] = c
			enc = append(enc, byte(c), byte(c>>8))
		}
		cr.runs[i] = cls
		cr.keys[i] = string(enc)
	}
	if p.clsRuns == nil {
		p.clsRuns = map[*automata.ByteClasses]*classRuns{}
	}
	p.clsRuns[bc] = cr
	return cr
}

// planProd is one productive production: its segments are the CSR row
// p.segs[off : off+n]. A segment with nt >= 0 references that nonterminal
// index; nt < 0 marks the terminal run plan.runs[run].
type planProd struct {
	lhs int32
	off int32
	n   int32
}

type planSeg struct {
	nt  int32
	run int32
}

// NewRelPlan snapshots g's productive productions (per minLens) for
// repeated relation fixpoints. Plan construction is metered by b at one
// step per production. Segments accumulate in one shared CSR slab rather
// than one heap slice per production.
func NewRelPlan(g *Grammar, minLens []int64, b *budget.Budget) *RelPlan {
	p := &RelPlan{n: g.NumNTs()}
	runIdx := map[string]int32{}
	var key []byte
	for i := 0; i < p.n; i++ {
		if minLens[i] < 0 {
			continue
		}
		for pi := 0; pi < g.numProdsAt(i); pi++ {
			rhs := g.rhsAt(i, pi)
			b.Step(1)
			off := int32(len(p.segs))
			for k := 0; k < len(rhs); {
				if !IsTerminal(rhs[k]) {
					p.segs = append(p.segs, planSeg{nt: int32(rhs[k]) - NumTerminals})
					k++
					continue
				}
				j := k
				key = key[:0]
				for j < len(rhs) && IsTerminal(rhs[j]) {
					key = append(key, byte(rhs[j]))
					j++
				}
				ri, ok := runIdx[string(key)]
				if !ok {
					ri = int32(len(p.runs))
					runIdx[string(key)] = ri
					p.runs = append(p.runs, rhs[k:j])
				}
				p.segs = append(p.segs, planSeg{nt: -1, run: ri})
				k = j
			}
			p.prods = append(p.prods, planProd{lhs: int32(i), off: off, n: int32(len(p.segs)) - off})
		}
	}
	p.dependents = make([][]int32, p.n)
	for pi, pp := range p.prods {
		for _, sg := range p.prodSegs(pp) {
			if sg.nt < 0 {
				continue
			}
			deps := p.dependents[sg.nt]
			if len(deps) == 0 || deps[len(deps)-1] != int32(pi) {
				p.dependents[sg.nt] = append(deps, int32(pi))
			}
		}
	}
	return p
}

func (p *RelPlan) prodSegs(pp planProd) []planSeg {
	return p.segs[pp.off : pp.off+pp.n]
}

// RelsT runs the relation fixpoint for d over the plan's grammar, metered by
// b (one step per run composition and per worklist pop; nil is unlimited).
// The fixpoint is a production worklist: a production is re-evaluated only
// when the relation of one of its right-hand-side nonterminals grew. Each
// distinct terminal run is composed through d into a state map once up
// front, on the class-indexed transition slab: runs are translated
// byte→class once per partition (cached on the plan), and runs that collapse
// to the same class sequence under d's partition share one composed state
// map via the class-string memo. Re-evaluating a production then costs one
// bitset pass per segment regardless of how many terminals the run packs
// (compacted slices carry long byte runs).
//
// The worklist traffic (counter "rels.pops" — every production
// re-evaluation) and the snapshot size ("rels.prods") flush onto sp when the
// fixpoint converges. The queue only ever grows, so its final length is the
// pop count and the hot loop stays tracer-free. A nil sp records nothing.
func (p *RelPlan) RelsT(d *automata.DFA, b *budget.Budget, sp *obs.Span) [][]uint32 {
	d.Complete()
	nq := d.NumStates()
	if nq > MaxRelStates {
		return nil
	}
	rel := make([][]uint32, p.n)
	flat := make([]uint32, p.n*nq)
	for i := range rel {
		rel[i] = flat[i*nq : (i+1)*nq : (i+1)*nq]
	}
	runMaps := make([]uint8, len(p.runs)*nq)
	cd := d.Compressed()
	cr := p.classRunsFor(cd.Classes())
	memo := make(map[string]int32, len(p.runs))
	var hits, misses int64
	for ri := range p.runs {
		b.Step(1)
		rm := runMaps[ri*nq : (ri+1)*nq]
		if src, ok := memo[cr.keys[ri]]; ok {
			copy(rm, runMaps[int(src)*nq:(int(src)+1)*nq])
			hits++
			continue
		}
		memo[cr.keys[ri]] = int32(ri)
		misses++
		for q := 0; q < nq; q++ {
			rm[q] = uint8(q)
		}
		for _, c := range cr.runs[ri] {
			for q := 0; q < nq; q++ {
				rm[q] = uint8(cd.StepClass(int(rm[q]), int(c)))
			}
		}
	}
	relMemo.hits.Add(hits)
	relMemo.misses.Add(misses)
	sp.Count("rels.runmemo.hits", hits)
	sp.Count("rels.runmemo.misses", misses)

	cur := make([]uint32, nq)
	next := make([]uint32, nq)
	inQueue := make([]bool, len(p.prods))
	queue := make([]int32, len(p.prods))
	// Seed the worklist in reverse production order: grammars arrive in
	// root-first (BFS) order, so the reverse visits constituents before
	// their users and the first sweep converges most productions. The
	// fixpoint's result is order-independent; only the pop count changes.
	for i := range queue {
		queue[i] = int32(len(queue) - 1 - i)
		inQueue[i] = true
	}
	for head := 0; head < len(queue); head++ {
		b.Step(1)
		pi := queue[head]
		inQueue[pi] = false
		pp := &p.prods[pi]
		for q := 0; q < nq; q++ {
			cur[q] = 1 << q
		}
		ok := true
		for _, sg := range p.prodSegs(*pp) {
			if sg.nt < 0 {
				rm := runMaps[int(sg.run)*nq : (int(sg.run)+1)*nq]
				for q := 0; q < nq; q++ {
					m := cur[q]
					var nb uint32
					for m != 0 {
						t := bits.TrailingZeros32(m)
						m &= m - 1
						nb |= 1 << rm[t]
					}
					next[q] = nb
				}
			} else {
				sr := rel[sg.nt]
				empty := true
				for _, v := range sr {
					if v != 0 {
						empty = false
						break
					}
				}
				if empty {
					ok = false // constituent unproductive or not yet computed
					break
				}
				for q := 0; q < nq; q++ {
					m := cur[q]
					var nb uint32
					for m != 0 {
						t := bits.TrailingZeros32(m)
						m &= m - 1
						nb |= sr[t]
					}
					next[q] = nb
				}
			}
			cur, next = next, cur
		}
		if !ok {
			continue
		}
		grew := false
		lr := rel[pp.lhs]
		for q := 0; q < nq; q++ {
			if lr[q]|cur[q] != lr[q] {
				lr[q] |= cur[q]
				grew = true
			}
		}
		if grew {
			for _, di := range p.dependents[pp.lhs] {
				if !inQueue[di] {
					inQueue[di] = true
					queue = append(queue, di)
				}
			}
		}
	}
	sp.Count("rels.pops", int64(len(queue)))
	sp.Count("rels.prods", int64(len(p.prods)))
	return rel
}

// RelNonempty reports whether L(nt) ∩ L(d) ≠ ∅ given d's relations.
func RelNonempty(rels [][]uint32, d *automata.DFA, g *Grammar, nt Sym) bool {
	return RelNonemptyB(rels, d, g, nt, nil)
}

// RelNonemptyB is RelNonempty with the oversized-DFA intersection fallback
// metered by b.
func RelNonemptyB(rels [][]uint32, d *automata.DFA, g *Grammar, nt Sym, b *budget.Budget) bool {
	if rels == nil {
		return !IntersectEmptyT(g, nt, d, b, nil)
	}
	row := rels[int(nt)-NumTerminals]
	m := row[d.Start()]
	for m != 0 {
		q := bits.TrailingZeros32(m)
		m &= m - 1
		if d.IsAccept(q) {
			return true
		}
	}
	return false
}

// Contexts returns, per nonterminal, the bitmask of d-states possible
// immediately before some occurrence of that nonterminal in a terminal
// derivation from root (0 = the nonterminal never occurs in a complete
// derivation). rels must come from Rels(g, d).
func Contexts(g *Grammar, root Sym, d *automata.DFA, rels [][]uint32) []uint32 {
	return ContextsMinT(g, root, d, rels, g.MinLens(), nil, nil)
}

// ContextsMinT is Contexts with the MinLens fixpoint supplied by the
// caller, metered by b (one step per production evaluation; nil is
// unlimited) and observed by sp: the number of passes the round-robin
// fixpoint needed flushes onto the span as "contexts.passes". A nil sp
// records nothing.
func ContextsMinT(g *Grammar, root Sym, d *automata.DFA, rels [][]uint32, minLens []int64, b *budget.Budget, sp *obs.Span) []uint32 {
	n := g.NumNTs()
	ctx := make([]uint32, n)
	if rels == nil {
		return ctx
	}
	ri := int(root) - NumTerminals
	if minLens[ri] >= 0 {
		ctx[ri] = 1 << uint(d.Start())
	}
	cd := d.Compressed()
	passes := int64(0)
	changed := true
	for changed {
		changed = false
		passes++
		g.ForEachProd(func(lhs Sym, rhs []Sym) {
			b.Step(1)
			li := int(lhs) - NumTerminals
			if ctx[li] == 0 {
				return
			}
			for _, s := range rhs {
				if !IsTerminal(s) && minLens[int(s)-NumTerminals] < 0 {
					return // production cannot complete
				}
			}
			states := ctx[li]
			for _, s := range rhs {
				if IsTerminal(s) {
					var next uint32
					m := states
					cls := cd.ClassOf(int(s))
					for m != 0 {
						p := bits.TrailingZeros32(m)
						m &= m - 1
						next |= 1 << uint(cd.StepClass(p, cls))
					}
					states = next
					continue
				}
				si := int(s) - NumTerminals
				if ctx[si]|states != ctx[si] {
					ctx[si] |= states
					changed = true
				}
				var next uint32
				m := states
				for m != 0 {
					p := bits.TrailingZeros32(m)
					m &= m - 1
					next |= rels[si][p]
				}
				states = next
			}
		})
	}
	sp.Count("contexts.passes", passes)
	return ctx
}
