package deriv

import "sqlciv/internal/grammar"

// parse is the extension of Earley's algorithm the paper describes in
// §3.2.2: it parses a sentential form in which some positions are variables
// ranging over sets of reference symbols. A variable position scans
// successfully against an expected reference symbol (terminal or
// nonterminal) when that symbol is in the variable's candidate set; a
// reference-symbol position scans only against itself. Parsing succeeds
// when start ⇒* some instantiation of the input form.
//
// The parser runs on the reference grammar's flat tables (refTables): an
// item is an (item slot, origin) pair, its successor slot is slot+1, and
// the symbol after its dot is one table read. Item sets are deduplicated
// per input position through an open-addressing set of the packed
// slot<<32|origin key. Completion follows the Aycock–Horspool scheme
// ("Practical Earley Parsing", 2002): each position keeps, per
// nonterminal, a list of the items there waiting on it, so completing A
// with origin j advances exactly the items at j waiting on A, and an item
// waiting on a nullable nonterminal advances at once. A completion with
// origin k at position k needs no list of items not yet processed: its
// nonterminal derived ε, so it is nullable, and the nullable advance moves
// every item that waits on it at k. Each nonterminal is predicted once per
// position, by the first item to wait on it there. The item sets are the
// closure of the Earley rules, so they do not depend on processing order.
// The scratch tables amortize across the tens of thousands of parses one
// derivability check can run.
func (s *session) parse(start grammar.Sym, input form, sets [][]bool) bool {
	s.parses++
	s.b.Step(1)
	tab := s.c.tab
	n := len(input)
	nnt := len(tab.first)
	sc := s.earley
	sc.reset(n+1, nnt)
	add := func(k int, slot, origin int32) {
		if sc.sets[k].add(uint64(uint32(slot))<<32 | uint64(uint32(origin))) {
			s.b.Step(1)
			s.items++
			sc.order[k] = append(sc.order[k], earleyItem{slot, origin})
		}
	}
	for _, f := range tab.first[int(start)-grammar.NumTerminals] {
		add(0, f, 0)
	}
	// Top-level: the whole input may be the single symbol `start` itself
	// (F(X) ⇒* F(X) in zero steps).
	if n == 1 && symCanBe(input[0], start, sets) {
		return true
	}
	accepted := false
	for k := 0; k <= n; k++ {
		// The input symbol at k: a variable's candidate set, or one
		// reference symbol. Past the end it is endMark, which the scan
		// below never meets.
		var cand []bool
		sym := endMark
		if k < n {
			if id, isVar := varID(input[k]); isVar {
				cand = sets[id]
			} else {
				sym = grammar.Sym(input[k])
			}
		}
		for idx := 0; idx < len(sc.order[k]); idx++ {
			it := sc.order[k][idx]
			next := tab.next[it.slot]
			if next == endMark {
				a := tab.lhs[it.slot]
				if a == start && it.origin == 0 && k == n {
					accepted = true
				}
				if int(it.origin) == k {
					continue // a nullable completion: see the doc comment
				}
				ai := int(a) - grammar.NumTerminals
				for w := sc.head[int(it.origin)*nnt+ai]; w != 0; {
					e := sc.waits[w-1]
					add(k, e.slot+1, e.origin)
					w = e.prev
				}
				continue
			}
			// scan: both terminals and nonterminals can be scanned — a
			// nonterminal in the derived sentential form stays unexpanded
			// when it matches the input position.
			if next == sym || (cand != nil && cand[next]) {
				add(k+1, it.slot+1, it.origin)
			}
			if grammar.IsTerminal(next) {
				continue
			}
			ai := int(next) - grammar.NumTerminals
			h := k*nnt + ai
			if sc.head[h] == 0 {
				for _, f := range tab.first[ai] {
					add(k, f, int32(k))
				}
			}
			sc.waits = append(sc.waits, waitEntry{it.slot, it.origin, sc.head[h]})
			sc.head[h] = int32(len(sc.waits))
			if tab.nullable[ai] {
				add(k, it.slot+1, it.origin)
			}
		}
	}
	return accepted
}

// earleyItem is one Earley item: a reference item slot (a dotted
// production) plus the input position its recognition started at.
type earleyItem struct {
	slot   int32
	origin int32
}

// waitEntry links an item into the list of items waiting on one
// nonterminal at one position.
type waitEntry struct {
	slot, origin int32
	prev         int32 // 1 + index of the previous entry of the same list; 0 ends it
}

// earleyScratch is the reusable parse workspace: one packed-key set and one
// discovery-ordered item list per input position, and the waiting lists —
// head holds, per (position, nonterminal), 1 + the index of the list's
// newest entry in waits, or 0 when no item waits there.
type earleyScratch struct {
	sets  []u64set
	order [][]earleyItem
	head  []int32
	waits []waitEntry
}

func (sc *earleyScratch) reset(m, nnt int) {
	for len(sc.sets) < m {
		sc.sets = append(sc.sets, u64set{})
		sc.order = append(sc.order, nil)
	}
	for i := 0; i < m; i++ {
		sc.sets[i].reset()
		sc.order[i] = sc.order[i][:0]
	}
	if cap(sc.head) < m*nnt {
		sc.head = make([]int32, m*nnt)
	} else {
		sc.head = sc.head[:m*nnt]
		clear(sc.head)
	}
	sc.waits = sc.waits[:0]
}

// u64set is a small open-addressing hash set of nonzero uint64 keys with
// linear probing; reset keeps the table allocated.
type u64set struct {
	tab []uint64
	n   int
}

func (s *u64set) reset() {
	if s.n > 0 {
		for i := range s.tab {
			s.tab[i] = 0
		}
		s.n = 0
	}
}

func mix64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// add inserts k and reports whether it was absent.
func (s *u64set) add(k uint64) bool {
	if len(s.tab) == 0 {
		s.tab = make([]uint64, 32)
	} else if s.n*2 >= len(s.tab) {
		old := s.tab
		s.tab = make([]uint64, len(old)*2)
		s.n = 0
		for _, v := range old {
			if v != 0 {
				s.insert(v)
			}
		}
	}
	return s.insert(k + 1) // +1: reserve 0 as the empty slot
}

func (s *u64set) insert(k uint64) bool {
	mask := uint64(len(s.tab) - 1)
	h := mix64(k) & mask
	for {
		v := s.tab[h]
		if v == 0 {
			s.tab[h] = k
			s.n++
			return true
		}
		if v == k {
			return false
		}
		h = (h + 1) & mask
	}
}
