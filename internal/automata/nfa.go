// Package automata implements nondeterministic and deterministic finite
// automata over the analysis alphabet: the 256 byte values plus one reserved
// context-marker symbol. It provides the standard constructions the string
// analysis needs — subset construction, complement, product intersection,
// minimization, emptiness, and shortest-witness extraction.
package automata

import (
	"math/bits"
	"sort"
)

// AlphabetSize is the number of input symbols an automaton ranges over:
// bytes 0..255 plus the reserved context marker used by the policy checker.
const AlphabetSize = 257

// Marker is the reserved non-byte input symbol. The policy-conformance
// checker substitutes it for a labeled nonterminal to discover the syntactic
// contexts in which that nonterminal occurs (paper §3.2.1).
const Marker = 256

// NFA is a nondeterministic finite automaton with epsilon moves.
// The zero value is an empty automaton with no states; use New.
type NFA struct {
	trans  []map[int][]int // trans[s][sym] = target states
	eps    [][]int         // eps[s] = epsilon targets
	accept []bool
	start  int
}

// NewNFA returns an empty NFA with a single non-accepting start state.
func NewNFA() *NFA {
	n := &NFA{}
	n.start = n.AddState()
	return n
}

// AddState adds a fresh non-accepting state and returns its index.
func (n *NFA) AddState() int {
	n.trans = append(n.trans, nil)
	n.eps = append(n.eps, nil)
	n.accept = append(n.accept, false)
	return len(n.trans) - 1
}

// NumStates reports the number of states.
func (n *NFA) NumStates() int { return len(n.trans) }

// Start returns the start state.
func (n *NFA) Start() int { return n.start }

// SetStart makes s the start state.
func (n *NFA) SetStart(s int) { n.start = s }

// SetAccept marks s accepting or not.
func (n *NFA) SetAccept(s int, v bool) { n.accept[s] = v }

// IsAccept reports whether s is accepting.
func (n *NFA) IsAccept(s int) bool { return n.accept[s] }

// AddEdge adds a transition from→to on symbol sym (0 ≤ sym < AlphabetSize).
func (n *NFA) AddEdge(from, sym, to int) {
	if sym < 0 || sym >= AlphabetSize {
		panic("automata: symbol out of range")
	}
	if n.trans[from] == nil {
		n.trans[from] = make(map[int][]int)
	}
	n.trans[from][sym] = append(n.trans[from][sym], to)
}

// AddByteRange adds transitions for every byte in [lo, hi].
func (n *NFA) AddByteRange(from int, lo, hi byte, to int) {
	for c := int(lo); c <= int(hi); c++ {
		n.AddEdge(from, c, to)
	}
}

// AddEps adds an epsilon transition from→to.
func (n *NFA) AddEps(from, to int) {
	n.eps[from] = append(n.eps[from], to)
}

// EpsTargets returns the direct epsilon successors of state s. The caller
// must not mutate the returned slice.
func (n *NFA) EpsTargets(s int) []int { return n.eps[s] }

// Edges calls f for every non-epsilon transition.
func (n *NFA) Edges(f func(from, sym, to int)) {
	for s, m := range n.trans {
		for sym, tos := range m {
			for _, t := range tos {
				f(s, sym, t)
			}
		}
	}
}

// epsClosure expands set (sorted slice of states) to its epsilon closure.
func (n *NFA) epsClosure(set []int) []int {
	seen := make(map[int]bool, len(set))
	stack := append([]int(nil), set...)
	for _, s := range set {
		seen[s] = true
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range n.eps[s] {
			if !seen[t] {
				seen[t] = true
				stack = append(stack, t)
			}
		}
	}
	out := make([]int, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// Determinize converts the NFA to an equivalent DFA via the subset
// construction over the NFA's byte classes. Classes are computed on the NFA
// first, so the exponential step scans a handful of classes per subset
// instead of all 257 symbols. State 0 is the dead state, so every
// transition is defined. State numbering matches the per-symbol
// construction exactly: state 1 is the start set, and subsets are numbered
// in first-discovery order under an ascending class scan, which coincides
// with the ascending symbol scan because each class is ordered by its
// smallest member.
func (n *NFA) Determinize() *DFA {
	d, _ := n.determinize(false, 0)
	return d
}

// DeterminizeCapped is the subset construction the enforcement compiler
// runs on whole-grammar over-approximations, with a bound on DFA states: if
// the construction would exceed maxStates (0 means unlimited) it aborts and
// returns (nil, false), and the caller records the hotspot as unavailable
// (it fails closed at runtime).
//
// Unlike Determinize it identifies each subset by its important states
// only: states with a symbol edge, and accepting states (Dragon book
// §3.9.5). Two ε-closed subsets with the same important states move alike
// on every symbol and agree on acceptance, so they are one DFA state; a
// successor with no important state is the dead state. Flattened grammars
// are mostly ε-only states, so the bitsets shrink to the few important
// columns and the result is a quotient of Determinize's: the same
// language, never more states, and isomorphic to it after Minimize. The
// minimized numbering can still differ on some inputs, because Minimize
// numbers blocks in the order its traversal of the (different) input
// discovers them.
func (n *NFA) DeterminizeCapped(maxStates int) (*DFA, bool) {
	return n.determinize(true, maxStates)
}

// subsetColumns maps NFA states to the bitset columns that identify a
// subset: col[s] is s's column or -1, state[j] the state in column j. The
// full construction gives every state a column; the important-state one
// only states with a symbol edge or an accepting flag.
func (n *NFA) subsetColumns(important bool) (col, state []int32) {
	col = make([]int32, len(n.trans))
	for s := range n.trans {
		if important && len(n.trans[s]) == 0 && !n.accept[s] {
			col[s] = -1
			continue
		}
		col[s] = int32(len(state))
		state = append(state, int32(s))
	}
	return col, state
}

// closureRows precomputes the ε-closure of every state as a dense bitset
// over columns (words uint64s per state, row s at clo[s*words:]) in one
// pass: iterative Tarjan over the ε graph, finalizing each SCC as it pops.
// Tarjan pops an SCC only after every SCC it can reach, so a popped SCC's
// closure is its members' columns unioned with the (already final) rows of
// its cross-SCC successors, and every member shares that row.
func (n *NFA) closureRows(col []int32, words int) []uint64 {
	N := len(n.trans)
	clo := make([]uint64, N*words)
	index := make([]int32, N) // 0 = unvisited, else DFS index+1
	low := make([]int32, N)
	onstk := make([]bool, N)
	var stk []int32 // Tarjan's SCC stack
	var next int32
	type frame struct {
		s int32
		i int
	}
	var dfs []frame
	tmp := make([]uint64, words)
	for root := 0; root < N; root++ {
		if index[root] != 0 {
			continue
		}
		next++
		index[root], low[root] = next, next
		stk = append(stk, int32(root))
		onstk[root] = true
		dfs = append(dfs[:0], frame{int32(root), 0})
		for len(dfs) > 0 {
			f := &dfs[len(dfs)-1]
			s := f.s
			eps := n.eps[s]
			if f.i < len(eps) {
				t := eps[f.i]
				f.i++
				if index[t] == 0 {
					next++
					index[t], low[t] = next, next
					stk = append(stk, int32(t))
					onstk[t] = true
					dfs = append(dfs, frame{int32(t), 0})
				} else if onstk[t] && low[s] > index[t] {
					low[s] = index[t]
				}
				continue
			}
			dfs = dfs[:len(dfs)-1]
			if len(dfs) > 0 {
				if p := dfs[len(dfs)-1].s; low[p] > low[s] {
					low[p] = low[s]
				}
			}
			if low[s] != index[s] {
				continue
			}
			// s roots an SCC: everything above it on the stack is a member.
			start := len(stk) - 1
			for stk[start] != s {
				start--
			}
			members := stk[start:]
			for w := range tmp {
				tmp[w] = 0
			}
			for _, m := range members {
				if j := col[m]; j >= 0 {
					tmp[j>>6] |= 1 << (uint(j) & 63)
				}
			}
			for _, m := range members {
				for _, t := range n.eps[m] {
					if onstk[t] {
						continue // same SCC: the member bits cover it
					}
					row := clo[t*words : (t+1)*words]
					for w := range tmp {
						tmp[w] |= row[w]
					}
				}
			}
			for _, m := range members {
				copy(clo[int(m)*words:(int(m)+1)*words], tmp)
				onstk[m] = false
			}
			stk = stk[:start]
		}
	}
	return clo
}

// cloBudget bounds the transient ε-closure table (one row of column bits
// per NFA state): past this many bytes the subset construction closes each
// subset by graph walk instead of ORing precomputed rows (slower per
// subset, but no quadratic table). 192MB covers the full construction of
// NFAs to ~37k states; the important-state construction's rows are
// |important|/64 words, so flattened grammars far past the NFA cap fit.
const cloBudget = 192 << 20

// closer ORs ε-closures, projected onto subset columns, into bitsets.
type closer struct {
	n     *NFA
	col   []int32
	words int
	rows  []uint64 // closureRows, or nil past cloBudget
	mark  []uint32 // graph walk: mark[s] == stamp once s is visited
	stamp uint32
	stack []int32
}

// close sets in buf the columns of the ε-closure of targets. Closure
// transitivity makes it incremental: a target whose column is already set
// contributes nothing new (its closure is inside whichever row set it).
func (c *closer) close(buf []uint64, targets []int32) {
	if c.rows != nil {
		for _, t := range targets {
			if j := c.col[t]; j >= 0 && buf[j>>6]&(1<<(uint(j)&63)) != 0 {
				continue
			}
			row := c.rows[int(t)*c.words : (int(t)+1)*c.words]
			for w := range buf {
				buf[w] |= row[w]
			}
		}
		return
	}
	if c.stamp++; c.stamp == 0 {
		clear(c.mark)
		c.stamp = 1
	}
	stk := c.stack[:0]
	for _, t := range targets {
		if c.mark[t] != c.stamp {
			c.mark[t] = c.stamp
			stk = append(stk, t)
		}
	}
	for len(stk) > 0 {
		s := stk[len(stk)-1]
		stk = stk[:len(stk)-1]
		if j := c.col[s]; j >= 0 {
			buf[j>>6] |= 1 << (uint(j) & 63)
		}
		for _, t := range c.n.eps[s] {
			if c.mark[t] != c.stamp {
				c.mark[t] = c.stamp
				stk = append(stk, int32(t))
			}
		}
	}
	c.stack = stk
}

// determinize is the subset construction behind Determinize (every state
// is a column) and DeterminizeCapped (important states only).
func (n *NFA) determinize(important bool, maxStates int) (*DFA, bool) {
	bc := classesOfNFA(n)
	nc := bc.NumClasses()
	N := len(n.trans)
	col, colState := n.subsetColumns(important)
	words := (len(colState) + 63) / 64

	// Sparse per-state transition rows grouped by byte class: rowCls[s]
	// lists the classes with outgoing edges at s, rowTgt[s][k] the raw
	// target states for rowCls[s][k]. Within a class every symbol has the
	// same targets at every state (that is what classesOfNFA partitions
	// on), so the union over the class's symbols is what any one symbol
	// sees.
	rowCls := make([][]int32, N)
	rowTgt := make([][][]int32, N)
	var clsIdx [AlphabetSize]int32
	for i := range clsIdx {
		clsIdx[i] = -1
	}
	for s := 0; s < N; s++ {
		m := n.trans[s]
		if len(m) == 0 {
			continue
		}
		for sym, tos := range m {
			cls := int32(bc.class[sym])
			k := clsIdx[cls]
			if k < 0 {
				k = int32(len(rowCls[s]))
				clsIdx[cls] = k
				rowCls[s] = append(rowCls[s], cls)
				rowTgt[s] = append(rowTgt[s], nil)
			}
			for _, t := range tos {
				rowTgt[s][k] = append(rowTgt[s][k], int32(t))
			}
		}
		for _, cls := range rowCls[s] {
			clsIdx[cls] = -1
		}
	}

	cl := &closer{n: n, col: col, words: words}
	if N*words*8 <= cloBudget {
		cl.rows = n.closureRows(col, words)
	} else {
		cl.mark = make([]uint32, N)
	}
	accBits := make([]uint64, words)
	for s, a := range n.accept {
		if j := col[s]; a && j >= 0 {
			accBits[j>>6] |= 1 << (uint(j) & 63)
		}
	}
	anyAccept := func(set []uint64) bool {
		for w := range set {
			if set[w]&accBits[w] != 0 {
				return true
			}
		}
		return false
	}
	// Subsets are interned by FNV-1a over their bitset words with exact
	// comparison against the stored set on bucket hits — closed sets run to
	// thousands of members, so rendering them into string keys would
	// dominate the whole construction.
	hashWords := func(set []uint64) uint64 {
		h := uint64(1469598103934665603)
		for _, w := range set {
			h ^= w
			h *= 1099511628211
		}
		return h
	}
	wordsEqual := func(a, b []uint64) bool {
		for w := range a {
			if a[w] != b[w] {
				return false
			}
		}
		return true
	}

	c := &DFA{bc: bc, nc: nc}
	addState := func() int32 {
		id := int32(len(c.accept))
		c.trans = append(c.trans, make([]int32, nc)...)
		c.accept = append(c.accept, false)
		return id
	}
	// State 0 is the dead state, the empty subset: interning it makes a
	// successor with no important state land there. The full construction
	// never meets an empty successor (it contains its targets).
	dead := addState()
	for cls := 0; cls < nc; cls++ {
		c.trans[int(dead)*nc+cls] = dead
	}
	deadSet := make([]uint64, words)
	ids := map[uint64][]int32{hashWords(deadSet): {dead}}

	startSet := make([]uint64, words)
	cl.close(startSet, []int32{int32(n.start)})
	startID := addState()
	ids[hashWords(startSet)] = append(ids[hashWords(startSet)], startID)
	c.start = startID
	sets := [][]uint64{deadSet, startSet} // indexed by DFA state id
	work := []int32{startID}
	c.accept[startID] = anyAccept(startSet)

	tgts := make([][]int32, nc)
	buf := make([]uint64, words)
	var touched []int32
	var seenCls [AlphabetSize]bool
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		set := sets[id]
		// Gather the raw targets per class across the subset's members.
		touched = touched[:0]
		for w, word := range set {
			for word != 0 {
				s := colState[w<<6+bits.TrailingZeros64(word)]
				word &= word - 1
				for k, cls := range rowCls[s] {
					if !seenCls[cls] {
						seenCls[cls] = true
						touched = append(touched, cls)
						tgts[cls] = tgts[cls][:0]
					}
					tgts[cls] = append(tgts[cls], rowTgt[s][k]...)
				}
			}
		}
		// Ascending class order keeps state numbering identical to the
		// per-symbol construction (and run-to-run deterministic — the
		// gather above follows map iteration order).
		sort.Slice(touched, func(i, j int) bool { return touched[i] < touched[j] })
		row := c.trans[int(id)*nc : (int(id)+1)*nc]
		for _, cls := range touched {
			seenCls[cls] = false
			clear(buf)
			cl.close(buf, tgts[cls])
			h := hashWords(buf)
			tid := int32(-1)
			for _, cand := range ids[h] {
				if wordsEqual(sets[cand], buf) {
					tid = cand
					break
				}
			}
			if tid < 0 {
				tid = addState()
				if maxStates > 0 && len(c.accept) > maxStates {
					return nil, false
				}
				ids[h] = append(ids[h], tid)
				kept := append([]uint64(nil), buf...)
				sets = append(sets, kept)
				c.accept[tid] = anyAccept(kept)
				work = append(work, tid)
				row = c.trans[int(id)*nc : (int(id)+1)*nc]
			}
			row[cls] = tid
		}
		// Untouched classes keep their zero value: the dead state.
	}
	return c.coarsen(), true
}

// Accepts reports whether the NFA accepts the given symbol sequence.
func (n *NFA) Accepts(syms []int) bool {
	cur := n.epsClosure([]int{n.start})
	for _, sym := range syms {
		var next []int
		for _, s := range cur {
			next = append(next, n.trans[s][sym]...)
		}
		if len(next) == 0 {
			return false
		}
		cur = n.epsClosure(next)
	}
	for _, s := range cur {
		if n.accept[s] {
			return true
		}
	}
	return false
}

// AcceptsString reports whether the NFA accepts the bytes of s.
func (n *NFA) AcceptsString(s string) bool {
	syms := make([]int, len(s))
	for i := 0; i < len(s); i++ {
		syms[i] = int(s[i])
	}
	return n.Accepts(syms)
}

// Union returns an NFA accepting L(a) ∪ L(b).
func Union(a, b *NFA) *NFA {
	u := NewNFA()
	oa := u.graft(a)
	ob := u.graft(b)
	u.AddEps(u.start, oa)
	u.AddEps(u.start, ob)
	return u
}

// Concat returns an NFA accepting L(a)·L(b).
func Concat(a, b *NFA) *NFA {
	u := NewNFA()
	oa := u.graft(a)
	baseA := oa - a.start
	ob := u.graft(b)
	u.AddEps(u.start, oa)
	for s := 0; s < a.NumStates(); s++ {
		if a.accept[s] {
			u.accept[baseA+s] = false
			u.AddEps(baseA+s, ob)
		}
	}
	return u
}

// Star returns an NFA accepting L(a)*.
func Star(a *NFA) *NFA {
	u := NewNFA()
	oa := u.graft(a)
	base := oa - a.start
	u.SetAccept(u.start, true)
	u.AddEps(u.start, oa)
	for s := 0; s < a.NumStates(); s++ {
		if a.accept[s] {
			u.AddEps(s+base, u.start)
		}
	}
	return u
}

// graft copies all of src's states into n and returns src's mapped start
// state. Acceptance flags are preserved.
func (n *NFA) graft(src *NFA) int {
	base := len(n.trans)
	for s := 0; s < src.NumStates(); s++ {
		n.AddState()
		n.accept[base+s] = src.accept[s]
	}
	for s := 0; s < src.NumStates(); s++ {
		for sym, tos := range src.trans[s] {
			for _, t := range tos {
				n.AddEdge(base+s, sym, base+t)
			}
		}
		for _, t := range src.eps[s] {
			n.AddEps(base+s, base+t)
		}
	}
	return base + src.start
}

// FromString returns an NFA accepting exactly the bytes of s.
func FromString(s string) *NFA {
	n := NewNFA()
	cur := n.start
	for i := 0; i < len(s); i++ {
		next := n.AddState()
		n.AddEdge(cur, int(s[i]), next)
		cur = next
	}
	n.SetAccept(cur, true)
	return n
}

// AnyByte returns an NFA accepting any single byte (not the marker).
func AnyByte() *NFA {
	n := NewNFA()
	acc := n.AddState()
	n.SetAccept(acc, true)
	n.AddByteRange(n.start, 0, 255, acc)
	return n
}

// SigmaStar returns an NFA accepting every byte string (markers excluded).
func SigmaStar() *NFA {
	n := NewNFA()
	n.SetAccept(n.start, true)
	n.AddByteRange(n.start, 0, 255, n.start)
	return n
}

// EmptyLang returns an NFA accepting nothing.
func EmptyLang() *NFA { return NewNFA() }

// EpsilonLang returns an NFA accepting only the empty string.
func EpsilonLang() *NFA {
	n := NewNFA()
	n.SetAccept(n.start, true)
	return n
}
