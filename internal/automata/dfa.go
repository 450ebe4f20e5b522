package automata

import "sync/atomic"

// DFA is a complete deterministic finite automaton: every state has a
// transition on every symbol (Determinize and the hand constructions below
// always produce complete automata).
//
// The dense per-symbol rows are the construction-time representation; the
// standard constructions (Minimize, Complement, Intersect, IsEmpty, MinWord)
// run on the cached class-indexed form (see Compressed) and expand back, so
// their outputs are byte-for-byte what the dense algorithms produce while
// scanning a handful of byte classes instead of all 257 symbols per state.
type DFA struct {
	trans  [][]int32 // trans[s][sym] = target state
	accept []bool
	start  int

	// compressed caches the class-indexed form; total caches completeness.
	// Both are invalidated by every mutating method, so a finalized DFA can
	// serve concurrent readers without rescanning.
	compressed atomic.Pointer[CDFA]
	total      atomic.Bool
}

// noteMutation drops the caches derived from the transition structure.
func (d *DFA) noteMutation() {
	d.compressed.Store(nil)
	d.total.Store(false)
}

// NewDFA returns a DFA with no states.
func NewDFA() *DFA { return &DFA{} }

// AddState adds a fresh non-accepting state with all transitions unset (-1)
// and returns its index.
func (d *DFA) AddState() int {
	row := make([]int32, AlphabetSize)
	for i := range row {
		row[i] = -1
	}
	d.trans = append(d.trans, row)
	d.accept = append(d.accept, false)
	d.noteMutation()
	return len(d.trans) - 1
}

// NumStates reports the number of states.
func (d *DFA) NumStates() int { return len(d.trans) }

// Start returns the start state.
func (d *DFA) Start() int { return d.start }

// SetStart makes s the start state.
func (d *DFA) SetStart(s int) {
	d.start = s
	d.compressed.Store(nil)
}

// SetAccept marks s accepting or not.
func (d *DFA) SetAccept(s int, v bool) {
	d.accept[s] = v
	d.compressed.Store(nil)
}

// IsAccept reports whether s accepts.
func (d *DFA) IsAccept(s int) bool { return d.accept[s] }

// SetEdge sets the transition from→to on sym.
func (d *DFA) SetEdge(from, sym, to int) {
	d.trans[from][sym] = int32(to)
	d.noteMutation()
}

// Step returns the successor of state s on sym (-1 if unset).
func (d *DFA) Step(s, sym int) int { return int(d.trans[s][sym]) }

// Complete fills any unset transition with a dead state so the automaton is
// total, adding the dead state only if needed. A DFA known to be total (from
// a previous Complete with no mutation since) early-exits without rescanning
// the rows, which also makes Complete safe to call concurrently on a
// finalized automaton.
func (d *DFA) Complete() {
	if d.total.Load() {
		return
	}
	dead := -1
	for s := range d.trans {
		for sym := 0; sym < AlphabetSize; sym++ {
			if d.trans[s][sym] < 0 {
				if dead < 0 {
					dead = d.AddState()
					for k := 0; k < AlphabetSize; k++ {
						d.trans[dead][k] = int32(dead)
					}
				}
				d.trans[s][sym] = int32(dead)
			}
		}
	}
	d.total.Store(true)
}

// Complement flips acceptance. The automaton is made total first — the dead
// state (if any) comes from Complete, not a private copy of its logic.
func (d *DFA) Complement() *DFA {
	d.Complete()
	return d.Compressed().Complement().Decompress()
}

// Intersect returns the product DFA accepting L(d) ∩ L(o). Both automata
// must be complete. Only the reachable part of the product is built. The
// product runs on the class-indexed forms; its states are numbered in the
// same discovery order as the per-symbol construction (see CDFA.Intersect),
// so the result is byte-identical to the per-symbol reference in
// dense_test.go.
func (d *DFA) Intersect(o *DFA) *DFA {
	d.Complete()
	o.Complete()
	return d.Compressed().Intersect(o.Compressed()).Decompress()
}

// Accepts reports whether d accepts the symbol sequence.
func (d *DFA) Accepts(syms []int) bool {
	s := d.start
	for _, sym := range syms {
		s = int(d.trans[s][sym])
		if s < 0 {
			return false
		}
	}
	return d.accept[s]
}

// AcceptsString reports whether d accepts the bytes of str.
func (d *DFA) AcceptsString(str string) bool {
	syms := make([]int, len(str))
	for i := 0; i < len(str); i++ {
		syms[i] = int(str[i])
	}
	return d.Accepts(syms)
}

// IsEmpty reports whether L(d) is empty.
func (d *DFA) IsEmpty() bool { return d.Compressed().IsEmpty() }

// MinWord returns a shortest accepted symbol sequence, or nil, false if the
// language is empty. Ties break toward the smallest symbol (the BFS scans
// classes in ascending-representative order, which visits successors in the
// same order as an ascending symbol scan).
func (d *DFA) MinWord() ([]int, bool) { return d.Compressed().MinWord() }

// Minimize returns an equivalent minimal complete DFA. The refinement is
// Hopcroft's, run on the class-indexed form (see CDFA.Minimize); state
// numbering and output rows are byte-identical to the per-symbol Moore
// reference in dense_test.go (the coarsest stable partition is unique, and
// both number its blocks by first occurrence in the same reachability
// order).
func (d *DFA) Minimize() *DFA {
	d.Complete()
	return d.Compressed().Minimize().Decompress()
}

func appendInt(b []byte, v int) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
