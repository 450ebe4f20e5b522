package grammar

// Open-addressing hash containers. u64set deduplicates packed uint64 work
// items for Earley recognition and canonical fingerprinting; ProdSet
// deduplicates the productions the Figure 7 intersection and the FST image
// emit. Both probe a power-of-two slice instead of a Go map's bucket chains.

import (
	"slices"
	"sync"
)

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// u64set is a set of uint64 keys. Key 0 is reserved as the empty slot, so
// the table stores key+1 (all packed keys here are < 1<<63).
type u64set struct {
	tab []uint64
	n   int
}

func (s *u64set) reset() {
	if s.tab == nil {
		s.tab = make([]uint64, 64)
	} else {
		clear(s.tab)
	}
	s.n = 0
}

// add inserts key and reports whether it was absent.
func (s *u64set) add(key uint64) bool {
	k := key + 1
	if k == 0 {
		k = 1 // fold MaxUint64 onto 0's slot rather than the empty marker
	}
	mask := uint64(len(s.tab) - 1)
	i := mix64(k) & mask
	for {
		v := s.tab[i]
		if v == 0 {
			s.tab[i] = k
			s.n++
			if s.n*2 >= len(s.tab) {
				s.grow()
			}
			return true
		}
		if v == k {
			return false
		}
		i = (i + 1) & mask
	}
}

func (s *u64set) grow() {
	old := s.tab
	s.tab = make([]uint64, len(old)*2)
	mask := uint64(len(s.tab) - 1)
	for _, k := range old {
		if k == 0 {
			continue
		}
		i := mix64(k) & mask
		for s.tab[i] != 0 {
			i = (i + 1) & mask
		}
		s.tab[i] = k
	}
}

// ProdSet adds each production to a grammar at most once: it is an exact
// set of the (lhs, rhs) productions added through it. The Figure 7
// intersection (IntersectIntoT) and the FST image (fst.ImageInto) take one
// per construction and add every production of an item's fresh nonterminal
// through it, so deduplication costs expected O(|rhs|) per probe whatever
// the item's production count. A slot holds a 32-bit hash and the member's
// position in the grammar; a hash match is confirmed against the grammar's
// stored right-hand side in full, because taking a collision for a
// duplicate would drop a production and with it part of the language.
//
// Sets are recycled through a pool: Release hands the table back, and an
// acquired set is emptied by bumping its generation, so a construction never
// pays for table growth or zeroing once an earlier one has sized the table.
type ProdSet struct {
	g     *Grammar
	slots []prodSlot
	gen   uint32 // a slot is live iff its gen equals this
	n     int
}

// prodSlot locates one member: production number prod of lhs.
type prodSlot struct {
	gen, hash uint32
	lhs       Sym
	prod      int32
}

// prodSetPoolMaxSlots caps the table a released set may keep: a
// pathological construction's table is left to the collector rather than
// held for the rest of the process.
const prodSetPoolMaxSlots = 1 << 20

var prodSetPool = sync.Pool{New: func() any { return &ProdSet{slots: make([]prodSlot, 64)} }}

// NewProdSet returns an empty set adding to g, recycled from an earlier
// construction when one is free. Productions of g added other than through
// the set are not members.
func NewProdSet(g *Grammar) *ProdSet {
	s := prodSetPool.Get().(*ProdSet)
	s.reset(g)
	return s
}

// reset empties s by starting a new generation.
func (s *ProdSet) reset(g *Grammar) {
	s.g = g
	s.gen++
	if s.gen == 0 { // wrapped: stale slots could match again
		clear(s.slots)
		s.gen = 1
	}
	s.n = 0
}

// Release returns s to the pool; s must not be used afterwards.
func (s *ProdSet) Release() {
	s.g = nil
	if len(s.slots) <= prodSetPoolMaxSlots {
		prodSetPool.Put(s)
	}
}

// Add appends the production lhs → rhs to the grammar unless it is already
// a member, and reports whether it appended it. The grammar copies rhs; the
// caller may reuse it.
func (s *ProdSet) Add(lhs Sym, rhs []Sym) bool {
	h := prodHash(lhs, rhs)
	li := s.g.ntIndex(lhs)
	mask := uint32(len(s.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.gen != s.gen {
			*sl = prodSlot{gen: s.gen, hash: h, lhs: lhs, prod: int32(s.g.numProdsAt(li))}
			s.g.Add(lhs, rhs...)
			s.n++
			if s.n*2 >= len(s.slots) {
				s.grow()
			}
			return true
		}
		if sl.hash == h && sl.lhs == lhs && slices.Equal(s.g.rhsAt(li, int(sl.prod)), rhs) {
			return false
		}
	}
}

func prodHash(lhs Sym, rhs []Sym) uint32 {
	h := uint64(uint32(lhs))<<32 | uint64(len(rhs))
	for _, x := range rhs {
		h = (h ^ uint64(uint32(x))) * 0x9e3779b97f4a7c15
	}
	return uint32(mix64(h))
}

// grow doubles the table, re-placing the live members by their stored
// hashes into a fresh table that restarts the generation count.
func (s *ProdSet) grow() {
	old, gen := s.slots, s.gen
	s.slots = make([]prodSlot, len(old)*2)
	s.gen = 1
	mask := uint32(len(s.slots) - 1)
	for _, sl := range old {
		if sl.gen != gen {
			continue
		}
		i := sl.hash & mask
		for s.slots[i].gen == 1 {
			i = (i + 1) & mask
		}
		sl.gen = 1
		s.slots[i] = sl
	}
}
