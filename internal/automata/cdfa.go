package automata

import "sync/atomic"

// CDFA is the class-indexed execution form of a DFA: the same states,
// acceptance, and start, with transitions indexed by byte-equivalence class
// instead of raw symbol and stored in one flat numStates × numClasses slab
// (no per-state row allocations). Construction-time code keeps using the
// dense DFA API; hot loops (relation composition, emptiness, shortest
// witness, product) run on the slab, which for the policy check automata is
// 25–80× smaller than the dense rows and stays resident in L1.
//
// Every CDFA carries the coarsest partition of its dense expansion, so
// Compress/Decompress round-trip losslessly and the byte encoding of
// (classes, slab, accept, start) is a canonical fingerprint of the dense
// automaton. A CDFA is immutable after construction and safe to share.
type CDFA struct {
	bc     *ByteClasses
	nc     int
	trans  []int32 // trans[s*nc+cls] = target state, -1 if unset
	accept []bool
	start  int32
}

// Classes returns the (interned) byte-class partition.
func (c *CDFA) Classes() *ByteClasses { return c.bc }

// NumClasses reports the number of byte classes.
func (c *CDFA) NumClasses() int { return c.nc }

// NumStates reports the number of states.
func (c *CDFA) NumStates() int { return len(c.accept) }

// Start returns the start state.
func (c *CDFA) Start() int { return int(c.start) }

// IsAccept reports whether s accepts.
func (c *CDFA) IsAccept(s int) bool { return c.accept[s] }

// ClassOf returns the class id of symbol sym.
func (c *CDFA) ClassOf(sym int) int { return int(c.bc.class[sym]) }

// Step returns the successor of state s on symbol sym (-1 if unset).
func (c *CDFA) Step(s, sym int) int { return int(c.trans[s*c.nc+int(c.bc.class[sym])]) }

// StepClass returns the successor of state s on class cls (-1 if unset).
func (c *CDFA) StepClass(s, cls int) int { return int(c.trans[s*c.nc+cls]) }

// SlabBytes reports the transition slab footprint in bytes.
func (c *CDFA) SlabBytes() int { return 4 * len(c.trans) }

// Accepts reports whether c accepts the symbol sequence.
func (c *CDFA) Accepts(syms []int) bool {
	s := int(c.start)
	for _, sym := range syms {
		s = int(c.trans[s*c.nc+int(c.bc.class[sym])])
		if s < 0 {
			return false
		}
	}
	return c.accept[s]
}

// AcceptsString reports whether c accepts the bytes of str.
func (c *CDFA) AcceptsString(str string) bool {
	s := int(c.start)
	for i := 0; i < len(str); i++ {
		s = int(c.trans[s*c.nc+int(c.bc.class[str[i]])])
		if s < 0 {
			return false
		}
	}
	return c.accept[s]
}

// Compress returns the class-indexed form of d under the coarsest byte
// partition d's transition structure supports. The result is a lossless
// snapshot: Decompress reproduces d's states, edges, acceptance, and start
// exactly. Most callers want Compressed, which computes once and caches.
func (d *DFA) Compress() *CDFA {
	bc := classesOfDFA(d)
	nc := bc.NumClasses()
	c := &CDFA{
		bc:     bc,
		nc:     nc,
		trans:  make([]int32, len(d.trans)*nc),
		accept: append([]bool(nil), d.accept...),
		start:  int32(d.start),
	}
	for s, row := range d.trans {
		out := c.trans[s*nc : (s+1)*nc]
		for cls := 0; cls < nc; cls++ {
			out[cls] = row[bc.reps[cls]]
		}
	}
	registerCensus(c)
	return c
}

// Compressed returns the cached class-indexed form of d, computing it on
// first use. It must only be called once d is finalized (no further edge or
// state mutations); mutating methods invalidate the cache. Safe for
// concurrent use — racing first calls compute identical snapshots and one
// wins.
func (d *DFA) Compressed() *CDFA {
	if c := d.compressed.Load(); c != nil {
		return c
	}
	c := d.Compress()
	if !d.compressed.CompareAndSwap(nil, c) {
		return d.compressed.Load()
	}
	return c
}

// Decompress expands c back to a dense DFA. c must be coarsest (every CDFA
// this package publishes is): the result's compressed cache is pre-seeded
// with c, so Compressed() on it is free, and its total flag is set when the
// slab has no unset transitions.
func (c *CDFA) Decompress() *DFA {
	d := &DFA{
		trans:  make([][]int32, c.NumStates()),
		accept: append([]bool(nil), c.accept...),
		start:  int(c.start),
	}
	flat := make([]int32, c.NumStates()*AlphabetSize)
	total := true
	for s := range d.trans {
		row := flat[s*AlphabetSize : (s+1)*AlphabetSize]
		src := c.trans[s*c.nc : (s+1)*c.nc]
		for _, t := range src {
			if t < 0 {
				total = false
				break
			}
		}
		for sym := 0; sym < AlphabetSize; sym++ {
			row[sym] = src[c.bc.class[sym]]
		}
		d.trans[s] = row
	}
	d.compressed.Store(c)
	d.total.Store(total && len(d.trans) > 0)
	registerCensus(c)
	return d
}

// coarsen re-derives the coarsest partition of c's dense expansion and
// merges slab columns accordingly. Construction over a finer-than-necessary
// partition (subset construction over NFA classes, products over merged
// classes, minimization) calls this so the published CDFA is canonical.
// Two classes merge iff their slab columns are equal; merged classes are
// numbered by their smallest old class, which is their smallest member.
func (c *CDFA) coarsen() *CDFA {
	n, nc := c.NumStates(), c.nc
	hash := make([]uint64, nc)
	for k := range hash {
		hash[k] = 1469598103934665603
	}
	for s := 0; s < n; s++ {
		for k, t := range c.trans[s*nc : (s+1)*nc] {
			hash[k] = (hash[k] ^ uint64(uint32(t))) * 1099511628211
		}
	}
	sameColumn := func(a, b int) bool {
		for s := 0; s < n; s++ {
			if c.trans[s*nc+a] != c.trans[s*nc+b] {
				return false
			}
		}
		return true
	}
	merged := make([]uint16, nc) // old class -> new class
	var reps []int               // new class -> smallest old class
	for k := 0; k < nc; k++ {
		j := 0
		for j < len(reps) && (hash[reps[j]] != hash[k] || !sameColumn(reps[j], k)) {
			j++
		}
		if j == len(reps) {
			reps = append(reps, k)
		}
		merged[k] = uint16(j)
	}
	if len(reps) == nc {
		return c
	}
	p := partition{n: len(reps)}
	for sym := range p.class {
		p.class[sym] = merged[c.bc.class[sym]]
	}
	bc := p.finish()
	out := &CDFA{bc: bc, nc: len(reps), trans: make([]int32, n*len(reps)), accept: c.accept, start: c.start}
	for s := 0; s < n; s++ {
		src := c.trans[s*nc : (s+1)*nc]
		dst := out.trans[s*out.nc : (s+1)*out.nc]
		for j, k := range reps {
			dst[j] = src[k]
		}
	}
	return out
}

// IsEmpty reports whether L(c) is empty.
func (c *CDFA) IsEmpty() bool {
	n := c.NumStates()
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	work := []int{int(c.start)}
	seen[c.start] = true
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		if c.accept[s] {
			return false
		}
		row := c.trans[s*c.nc : (s+1)*c.nc]
		for _, t32 := range row {
			t := int(t32)
			if t >= 0 && !seen[t] {
				seen[t] = true
				work = append(work, t)
			}
		}
	}
	return true
}

// MinWord returns a shortest accepted symbol sequence, or nil, false if the
// language is empty. Ties break toward the smallest symbol, matching the
// dense search: each class's representative is its smallest member, and the
// first class reaching a state in class order is the first symbol reaching
// it in symbol order.
func (c *CDFA) MinWord() ([]int, bool) {
	n := c.NumStates()
	if n == 0 {
		return nil, false
	}
	type back struct {
		prev int32
		sym  int32
	}
	prev := make([]back, n)
	for i := range prev {
		prev[i] = back{-1, -1}
	}
	seen := make([]bool, n)
	queue := []int32{c.start}
	seen[c.start] = true
	goal := -1
	for i := 0; i < len(queue); i++ {
		s := int(queue[i])
		if c.accept[s] {
			goal = s
			break
		}
		row := c.trans[s*c.nc : (s+1)*c.nc]
		for cls, t32 := range row {
			t := int(t32)
			if t >= 0 && !seen[t] {
				seen[t] = true
				prev[t] = back{int32(s), c.bc.reps[cls]}
				queue = append(queue, t32)
			}
		}
	}
	if goal < 0 {
		return nil, false
	}
	var rev []int
	for s := goal; s != int(c.start) || len(rev) == 0; {
		b := prev[s]
		if b.prev < 0 {
			break
		}
		rev = append(rev, int(b.sym))
		s = int(b.prev)
		if s == int(c.start) {
			break
		}
	}
	out := make([]int, len(rev))
	for i, sym := range rev {
		out[len(rev)-1-i] = sym
	}
	return out, true
}

// Complement flips acceptance. c must be complete (no -1 transitions); the
// class partition depends only on transitions, so it carries over.
func (c *CDFA) Complement() *CDFA {
	return &CDFA{
		bc:     c.bc,
		nc:     c.nc,
		trans:  c.trans,
		accept: flipBools(c.accept),
		start:  c.start,
	}
}

func flipBools(in []bool) []bool {
	out := make([]bool, len(in))
	for i, v := range in {
		out[i] = !v
	}
	return out
}

// Intersect returns the reachable product CDFA accepting L(c) ∩ L(o). Both
// automata must be complete. The product runs over the merge of the two
// partitions, then coarsens; state discovery order matches the dense
// product exactly (classes in ascending-representative order visit
// successor pairs in the same first-occurrence order as ascending symbols).
func (c *CDFA) Intersect(o *CDFA) *CDFA {
	bc := mergeClasses(c.bc, o.bc)
	nc := bc.NumClasses()
	// Per merged class, the operand class ids.
	clsA := make([]int32, nc)
	clsB := make([]int32, nc)
	for cls := 0; cls < nc; cls++ {
		rep := bc.reps[cls]
		clsA[cls] = int32(c.bc.class[rep])
		clsB[cls] = int32(o.bc.class[rep])
	}
	type pair struct{ a, b int32 }
	ids := map[pair]int32{}
	out := &CDFA{bc: bc, nc: nc}
	get := func(p pair) int32 {
		if id, ok := ids[p]; ok {
			return id
		}
		id := int32(len(out.accept))
		ids[p] = id
		out.trans = append(out.trans, make([]int32, nc)...)
		out.accept = append(out.accept, c.accept[p.a] && o.accept[p.b])
		return id
	}
	startP := pair{c.start, o.start}
	out.start = get(startP)
	work := []pair{startP}
	done := map[pair]bool{startP: true}
	for len(work) > 0 {
		p := work[len(work)-1]
		work = work[:len(work)-1]
		id := ids[p]
		rowA := c.trans[int(p.a)*c.nc : (int(p.a)+1)*c.nc]
		rowB := o.trans[int(p.b)*o.nc : (int(p.b)+1)*o.nc]
		for cls := 0; cls < nc; cls++ {
			np := pair{rowA[clsA[cls]], rowB[clsB[cls]]}
			nid := get(np)
			out.trans[int(id)*nc+cls] = nid
			if !done[np] {
				done[np] = true
				work = append(work, np)
			}
		}
	}
	return out.coarsen()
}

// Minimize returns an equivalent minimal complete CDFA: Hopcroft partition
// refinement over the reachable states, splitting on class-indexed inverse
// transitions. c must be complete. The coarsest stable partition is
// unique, and its blocks are numbered by first occurrence in the same
// reachability order the per-symbol Moore reference uses, so the output is
// bit-identical to it.
func (c *CDFA) Minimize() *CDFA {
	nc := c.nc
	// Restrict to reachable states. Iterating classes in ascending-
	// representative order visits targets in the same first-occurrence
	// order as the dense symbol scan, so `order` matches it exactly.
	reach := make([]int32, c.NumStates()) // old -> compact index or -1
	for i := range reach {
		reach[i] = -1
	}
	var order []int32
	work := []int32{c.start}
	reach[c.start] = 0
	order = append(order, c.start)
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		for _, t := range c.trans[int(s)*nc : (int(s)+1)*nc] {
			if reach[t] < 0 {
				reach[t] = int32(len(order))
				order = append(order, t)
				work = append(work, t)
			}
		}
	}
	n := len(order)

	// Inverse transitions over compact indices: the predecessors of t on
	// class cls are pred[off[t*nc+cls]:off[t*nc+cls+1]].
	off := make([]int32, n*nc+1)
	for _, old := range order {
		for cls, t := range c.trans[int(old)*nc : (int(old)+1)*nc] {
			off[int(reach[t])*nc+cls+1]++
		}
	}
	for k := 1; k < len(off); k++ {
		off[k] += off[k-1]
	}
	pred := make([]int32, n*nc)
	fill := append([]int32(nil), off[:n*nc]...)
	for i, old := range order {
		for cls, t := range c.trans[int(old)*nc : (int(old)+1)*nc] {
			k := int(reach[t])*nc + cls
			pred[fill[k]] = int32(i)
			fill[k]++
		}
	}

	// The partition: elems lists states grouped by block, block b owning
	// elems[first[b]:end[b]]; loc inverts elems. A splitter pass moves the
	// states it marks to the front of their block.
	elems := make([]int32, 0, n)
	loc := make([]int32, n)
	blk := make([]int32, n)
	var first, end, marked []int32
	for _, acc := range []bool{false, true} {
		lo := int32(len(elems))
		for i, old := range order {
			if c.accept[old] == acc {
				loc[i] = int32(len(elems))
				blk[i] = int32(len(first))
				elems = append(elems, int32(i))
			}
		}
		if hi := int32(len(elems)); hi > lo {
			first, end, marked = append(first, lo), append(end, hi), append(marked, 0)
		}
	}
	// Pending splitters (block, class); inW[b*nc+cls] tracks membership.
	type splitter struct{ b, cls int32 }
	var pending []splitter
	inW := make([]bool, len(first)*nc)
	push := func(b int32, cls int) {
		inW[int(b)*nc+cls] = true
		pending = append(pending, splitter{b, int32(cls)})
	}
	if len(first) == 2 {
		small := int32(0)
		if end[1]-first[1] < end[0]-first[0] {
			small = 1
		}
		for cls := 0; cls < nc; cls++ {
			push(small, cls)
		}
	}
	var snap, hit []int32
	for len(pending) > 0 {
		sp := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		inW[int(sp.b)*nc+int(sp.cls)] = false
		// Snapshot the splitter: marking reorders elems, its own block too.
		snap = append(snap[:0], elems[first[sp.b]:end[sp.b]]...)
		hit = hit[:0]
		for _, t := range snap {
			k := int(t)*nc + int(sp.cls)
			for _, s := range pred[off[k]:off[k+1]] {
				y := blk[s]
				m := first[y] + marked[y]
				if loc[s] < m {
					continue // already marked
				}
				o := elems[m]
				elems[m], elems[loc[s]] = s, o
				loc[o], loc[s] = loc[s], m
				if marked[y] == 0 {
					hit = append(hit, y)
				}
				marked[y]++
			}
		}
		for _, y := range hit {
			m := marked[y]
			marked[y] = 0
			if first[y]+m == end[y] {
				continue // wholly inside the preimage: no split
			}
			// The marked front of y becomes block z.
			z := int32(len(first))
			first, end, marked = append(first, first[y]), append(end, first[y]+m), append(marked, 0)
			first[y] += m
			for _, s := range elems[first[z]:end[z]] {
				blk[s] = z
			}
			inW = append(inW, make([]bool, nc)...)
			smaller := z
			if end[y]-first[y] < m {
				smaller = y
			}
			for cls := 0; cls < nc; cls++ {
				if inW[int(y)*nc+cls] {
					push(z, cls)
				} else {
					push(smaller, cls)
				}
			}
		}
	}

	// Number blocks by first occurrence in order. Members of a block have
	// the same row up to block numbers, so writing each member's is safe.
	num := make([]int32, len(first))
	for i := range num {
		num[i] = -1
	}
	var k int32
	for i := 0; i < n; i++ {
		if num[blk[i]] < 0 {
			num[blk[i]] = k
			k++
		}
	}
	out := &CDFA{bc: c.bc, nc: nc, trans: make([]int32, int(k)*nc), accept: make([]bool, k)}
	for i, old := range order {
		sc := num[blk[i]]
		out.accept[sc] = c.accept[old]
		dst := out.trans[int(sc)*nc : (int(sc)+1)*nc]
		for cls, t := range c.trans[int(old)*nc : (int(old)+1)*nc] {
			dst[cls] = num[blk[reach[t]]]
		}
	}
	out.start = num[blk[0]]
	return out.coarsen()
}

// Census is the cumulative automaton-compression census: how many distinct
// automata were compressed this process, and the total states, classes, and
// slab bytes of their class-indexed forms. cmd/benchjson records it per
// benchmark so `make bench-diff` can ratchet compression regressions.
type CensusData struct {
	DFAs      int64
	States    int64
	Classes   int64
	SlabBytes int64
}

var census struct {
	dfas, states, classes, slab atomic.Int64
}

func registerCensus(c *CDFA) {
	census.dfas.Add(1)
	census.states.Add(int64(c.NumStates()))
	census.classes.Add(int64(c.nc))
	census.slab.Add(int64(c.SlabBytes()))
}

// CensusSnapshot returns the current cumulative compression census.
func CensusSnapshot() CensusData {
	return CensusData{
		DFAs:      census.dfas.Load(),
		States:    census.states.Load(),
		Classes:   census.classes.Load(),
		SlabBytes: census.slab.Load(),
	}
}
