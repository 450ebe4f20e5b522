package automata

import (
	"sort"
	"sync"
)

// Byte-equivalence-class alphabet compression (the RE2 technique). The
// check automata the policy cascade runs — unescaped-quote, string-literal
// context, numeric-literal, attack-fragment — distinguish only a handful of
// byte classes (quote, backslash, digit, everything else) out of 257
// symbols. A ByteClasses value partitions the alphabet into the coarsest
// classes an automaton's edge structure cannot tell apart, so every loop
// over a state's successors (determinization, minimization, product,
// relation composition) runs over a few classes instead of 257 raw
// symbols.

// ByteClasses is a partition of the AlphabetSize symbols into equivalence
// classes. Class ids are canonical: classes are numbered by their smallest
// member symbol, so two structurally equal partitions compare (and intern)
// byte-for-byte. The zero value is not meaningful; partitions are built by
// the automata constructors and interned, so equal partitions share one
// pointer and pointer equality implies partition equality.
type ByteClasses struct {
	class [AlphabetSize]uint16 // symbol -> class id
	reps  []int32              // class id -> smallest member symbol
}

// NumClasses reports the number of equivalence classes.
func (bc *ByteClasses) NumClasses() int { return len(bc.reps) }

// ClassOf returns the class id of symbol sym.
func (bc *ByteClasses) ClassOf(sym int) int { return int(bc.class[sym]) }

// Rep returns the smallest symbol in class cls — the canonical
// representative every class-indexed loop steps with.
func (bc *ByteClasses) Rep(cls int) int { return int(bc.reps[cls]) }

// key returns the canonical byte encoding of the partition (for interning).
func (bc *ByteClasses) key() string {
	b := make([]byte, 0, 2*AlphabetSize)
	for _, c := range bc.class {
		b = append(b, byte(c), byte(c>>8))
	}
	return string(b)
}

// classInterner deduplicates partitions so equal partitions share one
// *ByteClasses. Pointer identity then doubles as a cheap cache key: the
// relation plans memoize byte→class run translations per partition pointer,
// and the quote-parity check DFAs (which induce the same partition) share
// one translation.
var classInterner sync.Map // string -> *ByteClasses

func internClasses(bc *ByteClasses) *ByteClasses {
	k := bc.key()
	if v, ok := classInterner.Load(k); ok {
		return v.(*ByteClasses)
	}
	v, _ := classInterner.LoadOrStore(k, bc)
	return v.(*ByteClasses)
}

// partition is the refinement workspace ByteClasses are built in. It starts
// with every symbol in class 0 and is split by per-symbol signatures, one
// automaton state at a time. Throughout, class ids stay numbered by first
// occurrence in ascending symbol order, which keeps the final numbering
// canonical (class 0 always contains symbol 0).
type partition struct {
	class [AlphabetSize]uint16
	n     int
}

func newPartition() *partition { return &partition{n: 1} }

// refineKey pairs an old class id with a state-local signature value.
type refineKey struct {
	old uint16
	sig int32
}

// refine splits the partition by sig: afterwards two symbols share a class
// iff they did before and sig assigns them the same value. A nil-free
// no-op when the partition is already discrete.
func (p *partition) refine(sig []int32) {
	if p.n >= AlphabetSize {
		return
	}
	ids := make(map[refineKey]uint16, p.n+1)
	var next partition
	for s := 0; s < AlphabetSize; s++ {
		k := refineKey{p.class[s], sig[s]}
		id, ok := ids[k]
		if !ok {
			id = uint16(len(ids))
			ids[k] = id
		}
		next.class[s] = id
	}
	p.class = next.class
	p.n = len(ids)
}

// finish freezes the partition into an interned ByteClasses.
func (p *partition) finish() *ByteClasses {
	bc := &ByteClasses{}
	bc.class = p.class
	bc.reps = make([]int32, p.n)
	for i := range bc.reps {
		bc.reps[i] = -1
	}
	for s := AlphabetSize - 1; s >= 0; s-- {
		bc.reps[p.class[s]] = int32(s)
	}
	return internClasses(bc)
}

// classesOfNFA computes the coarsest partition under which n's edge
// structure is class-uniform: two symbols land in the same class iff at
// every state they reach the same target set. Subset construction over
// these classes is exact — symbols in one class are indistinguishable to
// every reachable subset.
//
// It takes one pass over the edges: at each state, every symbol with an
// edge there moves to the block keyed by its current block and its target
// set, and every other symbol stays put, so a state costs its own edges
// rather than a scan of the alphabet. The coarsest partition is unique,
// and finish numbers it by smallest member.
func classesOfNFA(n *NFA) *ByteClasses {
	var block [AlphabetSize]int32
	next := int32(1)
	type key struct{ block, set int32 }
	moved := map[key]int32{}
	setIDs := map[string]int32{}
	var scratch []int
	var enc []byte
	for _, m := range n.trans {
		if len(m) == 0 {
			continue
		}
		for sym, tos := range m {
			k := key{block[sym], targetSetID(tos, setIDs, &scratch, &enc)}
			id, ok := moved[k]
			if !ok {
				id = next
				next++
				moved[k] = id
			}
			block[sym] = id
		}
		clear(moved)
	}
	var p partition
	ids := make(map[int32]uint16)
	for s, b := range block {
		id, ok := ids[b]
		if !ok {
			id = uint16(p.n)
			p.n++
			ids[b] = id
		}
		p.class[s] = id
	}
	return p.finish()
}

// targetSetID names the set of states in tos (order- and duplicate-
// insensitive): a single state names itself, and a larger set gets a
// negative id from setIDs, which persists across calls.
func targetSetID(tos []int, setIDs map[string]int32, scratch *[]int, enc *[]byte) int32 {
	if len(tos) == 1 {
		return int32(tos[0])
	}
	set := append((*scratch)[:0], tos...)
	*scratch = set
	sort.Ints(set)
	b := (*enc)[:0]
	for i, t := range set {
		if i > 0 && t == set[i-1] {
			continue
		}
		b = append(b, byte(t), byte(t>>8), byte(t>>16), byte(t>>24))
	}
	*enc = b
	if len(b) == 4 {
		return int32(set[0])
	}
	id, ok := setIDs[string(b)]
	if !ok {
		id = -int32(len(setIDs)) - 1
		setIDs[string(b)] = id
	}
	return id
}

// mergeClasses returns the coarsest partition refining both a and b — the
// alphabet a product automaton over (a, b)-classed operands distinguishes.
func mergeClasses(a, b *ByteClasses) *ByteClasses {
	if a == b {
		return a
	}
	p := newPartition()
	var sig [AlphabetSize]int32
	for s := 0; s < AlphabetSize; s++ {
		sig[s] = int32(a.class[s])
	}
	p.refine(sig[:])
	for s := 0; s < AlphabetSize; s++ {
		sig[s] = int32(b.class[s])
	}
	p.refine(sig[:])
	return p.finish()
}
