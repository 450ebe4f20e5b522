package automata

// DFA is a complete deterministic finite automaton whose transitions are
// indexed by byte-equivalence class instead of raw symbol, stored in one
// flat numStates × numClasses slab (no per-state row allocations). Every
// loop over a state's successors — relation composition, emptiness,
// shortest witness, product — scans a handful of classes instead of all
// AlphabetSize symbols; for the policy check automata the slab is 25–80×
// smaller than per-symbol rows and stays resident in L1.
//
// A DFA is immutable and complete from construction: only Determinize,
// DeterminizeCapped, Intersect, Complement, Minimize and FromFunc make one,
// and every state has a successor on every symbol, so a DFA is safe to
// share between goroutines. Every DFA carries the coarsest byte partition
// its transition function supports, so the byte encoding of (classes,
// slab, accept, start) is a canonical fingerprint of the automaton.
type DFA struct {
	bc     *ByteClasses
	nc     int
	trans  []int32 // trans[s*nc+cls] = target state
	accept []bool
	start  int32
}

// FromFunc returns the DFA with states 0..n-1, start state start, accepting
// states accept(s), and successor next(s, sym) for every state and every
// symbol of the alphabet. next must be total: each result is a state in
// [0, n). The transitions are packed under the coarsest byte partition next
// supports — two symbols share a class iff every state sends them to the
// same successor — with classes numbered by smallest member.
func FromFunc(n, start int, accept func(s int) bool, next func(s, sym int) int) *DFA {
	if start < 0 || start >= n {
		panic("automata: FromFunc start state out of range")
	}
	rows := make([]int32, n*AlphabetSize)
	p := newPartition()
	for s := 0; s < n; s++ {
		row := rows[s*AlphabetSize : (s+1)*AlphabetSize]
		for sym := range row {
			t := next(s, sym)
			if t < 0 || t >= n {
				panic("automata: FromFunc transition out of range")
			}
			row[sym] = int32(t)
		}
		p.refine(row)
	}
	bc := p.finish()
	nc := bc.NumClasses()
	d := &DFA{bc: bc, nc: nc, trans: make([]int32, n*nc), accept: make([]bool, n), start: int32(start)}
	for s := 0; s < n; s++ {
		d.accept[s] = accept(s)
		for cls, rep := range bc.reps {
			d.trans[s*nc+cls] = rows[s*AlphabetSize+int(rep)]
		}
	}
	return d
}

// Classes returns the (interned) byte-class partition.
func (d *DFA) Classes() *ByteClasses { return d.bc }

// NumClasses reports the number of byte classes.
func (d *DFA) NumClasses() int { return d.nc }

// NumStates reports the number of states.
func (d *DFA) NumStates() int { return len(d.accept) }

// Start returns the start state.
func (d *DFA) Start() int { return int(d.start) }

// IsAccept reports whether s accepts.
func (d *DFA) IsAccept(s int) bool { return d.accept[s] }

// ClassOf returns the class id of symbol sym.
func (d *DFA) ClassOf(sym int) int { return int(d.bc.class[sym]) }

// Step returns the successor of state s on symbol sym.
func (d *DFA) Step(s, sym int) int { return int(d.trans[s*d.nc+int(d.bc.class[sym])]) }

// StepClass returns the successor of state s on class cls.
func (d *DFA) StepClass(s, cls int) int { return int(d.trans[s*d.nc+cls]) }

// SlabBytes reports the transition slab footprint in bytes.
func (d *DFA) SlabBytes() int { return 4 * len(d.trans) }

// Accepts reports whether d accepts the symbol sequence.
func (d *DFA) Accepts(syms []int) bool {
	s := int(d.start)
	for _, sym := range syms {
		s = int(d.trans[s*d.nc+int(d.bc.class[sym])])
	}
	return d.accept[s]
}

// AcceptsString reports whether d accepts the bytes of str.
func (d *DFA) AcceptsString(str string) bool {
	s := int(d.start)
	for i := 0; i < len(str); i++ {
		s = int(d.trans[s*d.nc+int(d.bc.class[str[i]])])
	}
	return d.accept[s]
}

// coarsen re-derives the coarsest partition of d's transition function
// over symbols and merges slab columns accordingly. Construction over a
// finer-than-necessary partition (subset construction over NFA classes,
// products over merged classes, minimization) calls this so the published
// DFA is canonical. Two classes merge iff their slab columns are equal;
// merged classes are numbered by their smallest old class, which is their
// smallest member.
func (d *DFA) coarsen() *DFA {
	n, nc := d.NumStates(), d.nc
	hash := make([]uint64, nc)
	for k := range hash {
		hash[k] = 1469598103934665603
	}
	for s := 0; s < n; s++ {
		for k, t := range d.trans[s*nc : (s+1)*nc] {
			hash[k] = (hash[k] ^ uint64(uint32(t))) * 1099511628211
		}
	}
	sameColumn := func(a, b int) bool {
		for s := 0; s < n; s++ {
			if d.trans[s*nc+a] != d.trans[s*nc+b] {
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
		return d
	}
	p := partition{n: len(reps)}
	for sym := range p.class {
		p.class[sym] = merged[d.bc.class[sym]]
	}
	bc := p.finish()
	out := &DFA{bc: bc, nc: len(reps), trans: make([]int32, n*len(reps)), accept: d.accept, start: d.start}
	for s := 0; s < n; s++ {
		src := d.trans[s*nc : (s+1)*nc]
		dst := out.trans[s*out.nc : (s+1)*out.nc]
		for j, k := range reps {
			dst[j] = src[k]
		}
	}
	return out
}

// IsEmpty reports whether L(d) is empty.
func (d *DFA) IsEmpty() bool {
	seen := make([]bool, d.NumStates())
	work := []int32{d.start}
	seen[d.start] = true
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		if d.accept[s] {
			return false
		}
		for _, t := range d.trans[int(s)*d.nc : (int(s)+1)*d.nc] {
			if !seen[t] {
				seen[t] = true
				work = append(work, t)
			}
		}
	}
	return true
}

// MinWord returns a shortest accepted symbol sequence, or nil, false if the
// language is empty. Ties break toward the smallest symbol: each class's
// representative is its smallest member, and the first class reaching a
// state in class order is the first symbol reaching it in symbol order.
func (d *DFA) MinWord() ([]int, bool) {
	n := d.NumStates()
	type back struct {
		prev int32
		sym  int32
	}
	prev := make([]back, n)
	for i := range prev {
		prev[i] = back{-1, -1}
	}
	seen := make([]bool, n)
	queue := []int32{d.start}
	seen[d.start] = true
	goal := -1
	for i := 0; i < len(queue); i++ {
		s := int(queue[i])
		if d.accept[s] {
			goal = s
			break
		}
		for cls, t := range d.trans[s*d.nc : (s+1)*d.nc] {
			if !seen[t] {
				seen[t] = true
				prev[t] = back{int32(s), d.bc.reps[cls]}
				queue = append(queue, t)
			}
		}
	}
	if goal < 0 {
		return nil, false
	}
	var rev []int
	for s := goal; s != int(d.start) || len(rev) == 0; {
		b := prev[s]
		if b.prev < 0 {
			break
		}
		rev = append(rev, int(b.sym))
		s = int(b.prev)
		if s == int(d.start) {
			break
		}
	}
	out := make([]int, len(rev))
	for i, sym := range rev {
		out[len(rev)-1-i] = sym
	}
	return out, true
}

// Complement returns the DFA accepting exactly the strings d rejects: the
// same states and transitions with acceptance flipped. The class partition
// depends only on transitions, so it carries over.
func (d *DFA) Complement() *DFA {
	accept := make([]bool, len(d.accept))
	for i, v := range d.accept {
		accept[i] = !v
	}
	return &DFA{bc: d.bc, nc: d.nc, trans: d.trans, accept: accept, start: d.start}
}

// Intersect returns the product DFA accepting L(d) ∩ L(o). Only the
// reachable part of the product is built. The product runs over the merge
// of the two partitions, then coarsens; state discovery order matches the
// per-symbol product exactly (classes in ascending-representative order
// visit successor pairs in the same first-occurrence order as ascending
// symbols), so the result is byte-identical to the reference in
// dense_test.go.
func (d *DFA) Intersect(o *DFA) *DFA {
	bc := mergeClasses(d.bc, o.bc)
	nc := bc.NumClasses()
	// Per merged class, the operand class ids.
	clsA := make([]int32, nc)
	clsB := make([]int32, nc)
	for cls := 0; cls < nc; cls++ {
		rep := bc.reps[cls]
		clsA[cls] = int32(d.bc.class[rep])
		clsB[cls] = int32(o.bc.class[rep])
	}
	type pair struct{ a, b int32 }
	ids := map[pair]int32{}
	out := &DFA{bc: bc, nc: nc}
	get := func(p pair) int32 {
		if id, ok := ids[p]; ok {
			return id
		}
		id := int32(len(out.accept))
		ids[p] = id
		out.trans = append(out.trans, make([]int32, nc)...)
		out.accept = append(out.accept, d.accept[p.a] && o.accept[p.b])
		return id
	}
	startP := pair{d.start, o.start}
	out.start = get(startP)
	work := []pair{startP}
	done := map[pair]bool{startP: true}
	for len(work) > 0 {
		p := work[len(work)-1]
		work = work[:len(work)-1]
		id := ids[p]
		rowA := d.trans[int(p.a)*d.nc : (int(p.a)+1)*d.nc]
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

// Minimize returns an equivalent minimal DFA: Hopcroft partition refinement
// over the reachable states, splitting on class-indexed inverse
// transitions. The coarsest stable partition is unique, and its blocks are
// numbered by first occurrence in the same reachability order the
// per-symbol Moore reference in dense_test.go uses, so the output is
// bit-identical to it.
func (d *DFA) Minimize() *DFA {
	nc := d.nc
	// Restrict to reachable states. Iterating classes in ascending-
	// representative order visits targets in the same first-occurrence
	// order as the per-symbol scan, so `order` matches it exactly.
	reach := make([]int32, d.NumStates()) // old -> compact index or -1
	for i := range reach {
		reach[i] = -1
	}
	var order []int32
	work := []int32{d.start}
	reach[d.start] = 0
	order = append(order, d.start)
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		for _, t := range d.trans[int(s)*nc : (int(s)+1)*nc] {
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
		for cls, t := range d.trans[int(old)*nc : (int(old)+1)*nc] {
			off[int(reach[t])*nc+cls+1]++
		}
	}
	for k := 1; k < len(off); k++ {
		off[k] += off[k-1]
	}
	pred := make([]int32, n*nc)
	fill := append([]int32(nil), off[:n*nc]...)
	for i, old := range order {
		for cls, t := range d.trans[int(old)*nc : (int(old)+1)*nc] {
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
			if d.accept[old] == acc {
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
	out := &DFA{bc: d.bc, nc: nc, trans: make([]int32, int(k)*nc), accept: make([]bool, k)}
	for i, old := range order {
		sc := num[blk[i]]
		out.accept[sc] = d.accept[old]
		dst := out.trans[int(sc)*nc : (int(sc)+1)*nc]
		for cls, t := range d.trans[int(old)*nc : (int(old)+1)*nc] {
			dst[cls] = num[blk[reach[t]]]
		}
	}
	out.start = num[blk[0]]
	return out.coarsen()
}
