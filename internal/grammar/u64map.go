package grammar

// Open-addressing hash sets of Earley and fingerprinting work items
// (u64set) and of Figure 7 hyperedges (edgeSet): they probe a power-of-two
// slice instead of a Go map's bucket chains.

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// u64set is a set of uint64 keys. Key 0 is reserved as the empty slot, so
// the table stores key+1 (all packed keys here are < 1<<63). used lists the
// occupied slots, so a reset clears what the last use filled however large
// an earlier use grew the table: pooled Earley sets cost each parse only
// what it touches.
type u64set struct {
	tab  []uint64
	used []int32
}

func (s *u64set) reset() {
	for _, i := range s.used {
		s.tab[i] = 0
	}
	s.used = s.used[:0]
}

// add inserts key and reports whether it was absent.
func (s *u64set) add(key uint64) bool {
	k := key + 1
	if k == 0 {
		k = 1 // fold MaxUint64 onto 0's slot rather than the empty marker
	}
	if s.tab == nil {
		s.tab = make([]uint64, 64)
	}
	mask := uint64(len(s.tab) - 1)
	i := mix64(k) & mask
	for {
		v := s.tab[i]
		if v == 0 {
			s.tab[i] = k
			s.used = append(s.used, int32(i))
			if len(s.used)*2 >= len(s.tab) {
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
	for j, o := range s.used {
		k := old[o]
		i := mix64(k) & mask
		for s.tab[i] != 0 {
			i = (i + 1) & mask
		}
		s.tab[i] = k
		s.used[j] = int32(i)
	}
}

// edgeSet is the exact set of a Figure 7 worklist's hyperedges. A slot packs
// a 16-bit generation (live iff the set's, so a recycled table starts empty
// uncleared), a 16-bit hash fingerprint and the index in the edge list,
// which a probe reads only on a fingerprint match: taking a collision for a
// member would drop a production.
type edgeSet struct {
	slots []uint64
	gen   uint64
	n     int
}

const edgeGenBits = 16

func (s *edgeSet) reset() {
	if s.slots == nil {
		s.slots = make([]uint64, 64)
	}
	s.gen = (s.gen + 1) & (1<<edgeGenBits - 1)
	if s.gen == 0 { // wrapped: stale slots could match again
		clear(s.slots)
		s.gen = 1
	}
	s.n = 0
}

func (e Edge) hash() uint64 {
	return mix64(uint64(uint32(e.Item))<<32|uint64(uint32(e.A))) ^
		mix64(uint64(uint32(e.C))<<2|uint64(e.Kind))
}

// add appends e to *edges unless it is there, and reports whether it
// appended it.
func (s *edgeSet) add(edges *[]Edge, e Edge) bool {
	h := e.hash()
	tag := s.gen<<48 | h>>48<<32
	mask := uint64(len(s.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		v := s.slots[i]
		if v>>48 != s.gen {
			s.slots[i] = tag | uint64(len(*edges))
			*edges = append(*edges, e)
			if s.n++; s.n*2 >= len(s.slots) {
				s.grow(*edges)
			}
			return true
		}
		if v&^(1<<32-1) == tag && (*edges)[uint32(v)] == e {
			return false
		}
	}
}

func (s *edgeSet) grow(edges []Edge) {
	s.slots = make([]uint64, 2*len(s.slots))
	s.gen = 1
	mask := uint64(len(s.slots) - 1)
	for idx, e := range edges {
		h := e.hash()
		i := h & mask
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = 1<<48 | h>>48<<32 | uint64(idx)
	}
}
