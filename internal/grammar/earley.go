package grammar

import (
	"fmt"
	"sync"

	"sqlciv/internal/budget"
)

// Earley recognition over sentential forms, extended as the derivability
// check of paper §3.2.2 needs it: an input position is a symbol of g, which
// matches only itself, or a variable -(v+1), which matches any symbol s
// with sets[v][s]. Parsing succeeds when start ⇒+ some instantiation of the
// input, so a nonterminal in the input stays unexpanded when it matches the
// symbol a production expects there. Plain recognition (Derives, dynamic
// includes, the Def. 2.2 oracle) is the variable-free case.
//
// The parser runs on flat tables of the nonterminals reachable from the
// Recognizer's roots, numbered in discovery order: every dotted production
// — an item slot — has a dense id, the slots of one production are
// consecutive in dot order, so advancing an item's dot is slot+1, and the
// symbol after a dot is one table read. An item is an (item slot, origin)
// pair, deduplicated per input position through a set of the packed
// slot<<32|origin key. Completion follows Aycock and Horspool ("Practical
// Earley Parsing", 2002): each position keeps, per nonterminal, a list of
// the items there waiting on it, so completing A with origin j advances
// exactly the items at j waiting on A, and an item waiting on a nullable
// nonterminal advances at once. A completion with origin k at position k
// needs no list of items not yet processed: its nonterminal derived ε, so
// it is nullable, and the nullable advance moves every item that waits on
// it at k. Each nonterminal is predicted once per position, by the first
// item to wait on it there. The item sets are the closure of the Earley
// rules, so they do not depend on processing order.

// Recognizer holds the Earley tables of one grammar's nonterminals
// reachable from a set of roots. The tables are a snapshot of the grammar's
// productions when it was built and are never written after, so one
// Recognizer serves concurrent parses; each parse draws its workspace from
// a pool.
type Recognizer struct {
	g        *Grammar
	local    map[Sym]int32 // nonterminal -> local id
	firstEnd []int32       // per local a: its productions' dot-0 slots are first[firstEnd[a-1]:firstEnd[a]]
	first    []int32
	next     []Sym   // per slot: the symbol after the dot, or endMark
	nextNT   []int32 // per slot: the local id of next when it is a nonterminal, else -1
	lhs      []int32 // per slot: the local id of the production's left-hand side
	nullable []bool  // per local
}

// endMark is the next entry of a slot whose dot ends its production.
const endMark Sym = -1

// NewRecognizer builds the tables of the nonterminals of g reachable from
// roots, or of all of g's nonterminals, in index order, when roots is
// empty. Parses may start only at those nonterminals.
func NewRecognizer(g *Grammar, roots ...Sym) *Recognizer {
	r := &Recognizer{g: g, local: map[Sym]int32{}}
	var nts []Sym
	see := func(s Sym) int32 {
		id, ok := r.local[s]
		if !ok {
			id = int32(len(nts))
			r.local[s] = id
			nts = append(nts, s)
		}
		return id
	}
	if len(roots) == 0 {
		for i := range g.NumNTs() {
			see(Sym(NumTerminals + i))
		}
	}
	for _, s := range roots {
		see(s)
	}
	for a := 0; a < len(nts); a++ { // nts grows as productions reach new nonterminals
		for pi := range g.NumProdsOf(nts[a]) {
			r.first = append(r.first, int32(len(r.next)))
			for _, s := range g.Rhs(nts[a], pi) {
				nt := int32(-1)
				if !IsTerminal(s) {
					nt = see(s)
				}
				r.next, r.nextNT, r.lhs = append(r.next, s), append(r.nextNT, nt), append(r.lhs, int32(a))
			}
			r.next, r.nextNT, r.lhs = append(r.next, endMark), append(r.nextNT, -1), append(r.lhs, int32(a))
		}
		r.firstEnd = append(r.firstEnd, int32(len(r.first)))
	}
	// A production is nullable when every symbol of it is a nullable
	// nonterminal. Later locals tend to be the earlier ones' constituents,
	// so passes run backwards.
	r.nullable = make([]bool, len(nts))
	for changed := true; changed; {
		changed = false
		for i := len(r.first) - 1; i >= 0; i-- {
			s := r.first[i]
			for r.nextNT[s] >= 0 && r.nullable[r.nextNT[s]] {
				s++
			}
			if a := r.lhs[s]; r.next[s] == endMark && !r.nullable[a] {
				r.nullable[a], changed = true, true
			}
		}
	}
	return r
}

// Grammar returns the grammar r was built from.
func (r *Recognizer) Grammar() *Grammar { return r.g }

// firsts returns the dot-0 slots of local a's productions, in order.
func (r *Recognizer) firsts(a int32) []int32 {
	lo := int32(0)
	if a > 0 {
		lo = r.firstEnd[a-1]
	}
	return r.first[lo:r.firstEnd[a]]
}

// Recognize reports whether start ⇒+ input, where input is a sentential
// form over g's symbols (an input nonterminal matches only itself).
func (r *Recognizer) Recognize(start Sym, input []Sym) bool {
	p := r.NewParser(nil)
	defer p.Release()
	return p.Parse(start, input, nil)
}

// RecognizeString reports whether start derives the byte string s.
func (r *Recognizer) RecognizeString(start Sym, s string) bool {
	return r.Recognize(start, TermString(s))
}

// Derives reports whether start ⇒+ input in g. It builds the tables of the
// nonterminals start reaches; hold a Recognizer for repeated queries.
func (g *Grammar) Derives(start Sym, input []Sym) bool {
	return NewRecognizer(g, start).Recognize(start, input)
}

// DerivesString reports whether start derives exactly the byte string s.
func (g *Grammar) DerivesString(start Sym, s string) bool {
	return g.Derives(start, TermString(s))
}

// Parser is one goroutine's session of parses on a Recognizer, with one
// pooled workspace, metered by b (nil is unlimited): a step per parse and
// per admitted item. Parses and Items count the same two, for the caller's
// span. Release returns the workspace.
type Parser struct {
	r      *Recognizer
	b      *budget.Budget
	sc     *earleyScratch
	Parses int
	Items  int64
}

var earleyPool = sync.Pool{New: func() any { return new(earleyScratch) }}

// NewParser starts a parse session on r metered by b.
func (r *Recognizer) NewParser(b *budget.Budget) *Parser {
	return &Parser{r: r, b: b, sc: earleyPool.Get().(*earleyScratch)}
}

// Release recycles p's workspace; p must not parse after.
func (p *Parser) Release() {
	earleyPool.Put(p.sc)
	p.sc = nil
}

// Parse reports whether start ⇒+ some instantiation of input, whose
// negative entries -(v+1) are variables over the candidate sets sets[v]
// (indexed by symbol). On exhaustion the budget panics with
// *budget.Exceeded.
func (p *Parser) Parse(start Sym, input []Sym, sets [][]bool) bool {
	r, sc := p.r, p.sc
	p.Parses++
	p.b.Step(1)
	s0, ok := r.local[start]
	if !ok {
		panic(fmt.Sprintf("grammar: Earley start %d is not among the recognizer's nonterminals", start))
	}
	n, nnt := len(input), len(r.firstEnd)
	sc.reset(n+1, nnt)
	add := func(k int, slot, origin int32) {
		if sc.sets[k].add(uint64(uint32(slot))<<32 | uint64(uint32(origin))) {
			p.b.Step(1)
			p.Items++
			sc.order[k] = append(sc.order[k], earleyItem{slot, origin})
		}
	}
	for _, f := range r.firsts(s0) {
		add(0, f, 0)
	}
	accepted := false
	for k := 0; k <= n; k++ {
		// The input at k: a variable's candidate set, or one symbol. Past
		// the end it is endMark, which the scan below never meets.
		var cand []bool
		sym := endMark
		if k < n {
			if x := input[k]; x < 0 {
				cand = sets[-x-1]
			} else {
				sym = x
			}
		}
		for idx := 0; idx < len(sc.order[k]); idx++ {
			it := sc.order[k][idx]
			next := r.next[it.slot]
			if next == endMark {
				a := r.lhs[it.slot]
				if a == s0 && it.origin == 0 && k == n {
					accepted = true
				}
				if int(it.origin) == k {
					continue // a nullable completion: see the comment atop this file
				}
				for w := sc.head[int(it.origin)*nnt+int(a)]; w != 0; {
					e := sc.waits[w-1]
					add(k, e.slot+1, e.origin)
					w = e.prev
				}
				continue
			}
			if next == sym || (cand != nil && cand[next]) {
				add(k+1, it.slot+1, it.origin)
			}
			b := r.nextNT[it.slot]
			if b < 0 {
				continue
			}
			h := k*nnt + int(b)
			if sc.head[h] == 0 {
				sc.touched = append(sc.touched, h)
				for _, f := range r.firsts(b) {
					add(k, f, int32(k))
				}
			}
			sc.waits = append(sc.waits, waitEntry{it.slot, it.origin, sc.head[h]})
			sc.head[h] = int32(len(sc.waits))
			if r.nullable[b] {
				add(k, it.slot+1, it.origin)
			}
		}
	}
	return accepted
}

// earleyItem is one Earley item: an item slot (a dotted production) plus
// the input position its recognition started at.
type earleyItem struct {
	slot, origin int32
}

// waitEntry links an item into the list of items waiting on one
// nonterminal at one position.
type waitEntry struct {
	slot, origin int32
	prev         int32 // 1 + index of the previous entry of the same list; 0 ends it
}

// earleyScratch is one parse session's workspace: per input position a
// packed-key item set and a discovery-ordered item list, and the waiting
// lists — head holds, per (position, local nonterminal), 1 + the index of
// the list's newest entry in waits, or 0 when no item waits there. touched
// lists the heads a parse set, so the next reset clears only those.
type earleyScratch struct {
	sets    []u64set
	order   [][]earleyItem
	head    []int32
	touched []int
	waits   []waitEntry
}

func (sc *earleyScratch) reset(m, nnt int) {
	for len(sc.sets) < m {
		sc.sets = append(sc.sets, u64set{})
		sc.order = append(sc.order, nil)
	}
	for i := range m {
		sc.sets[i].reset()
		sc.order[i] = sc.order[i][:0]
	}
	for _, h := range sc.touched {
		sc.head[h] = 0
	}
	if cap(sc.head) < m*nnt {
		sc.head = make([]int32, m*nnt)
	}
	sc.head, sc.touched, sc.waits = sc.head[:m*nnt], sc.touched[:0], sc.waits[:0]
}
