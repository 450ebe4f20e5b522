package automata

// The per-symbol ("dense") reference constructions. Production code runs
// every construction on the class-indexed DFA (classes.go, dfa.go) and
// promises byte-identical output; classes_test.go holds it to that promise
// by running these originals side by side on random automata.

// denseDFA is the per-symbol row form the reference constructions run on:
// trans[s][sym] is the successor of state s on symbol sym. Every denseDFA
// built here is complete.
type denseDFA struct {
	trans  [][]int32
	accept []bool
	start  int
}

// addState adds a non-accepting state with every transition unset (-1) and
// returns its index.
func (d *denseDFA) addState() int {
	row := make([]int32, AlphabetSize)
	for i := range row {
		row[i] = -1
	}
	d.trans = append(d.trans, row)
	d.accept = append(d.accept, false)
	return len(d.trans) - 1
}

// packed returns d as a DFA, through FromFunc.
func (d *denseDFA) packed() *DFA {
	return FromFunc(len(d.trans), d.start,
		func(s int) bool { return d.accept[s] },
		func(s, sym int) int { return int(d.trans[s][sym]) })
}

func appendInt(b []byte, v int) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// determinizeDense is the per-symbol reference implementation, the oracle the
// class-indexed construction is differentially tested against.
func (n *NFA) determinizeDense() *denseDFA {
	type key string
	enc := func(set []int) key {
		b := make([]byte, 0, len(set)*3)
		for _, s := range set {
			b = append(b, byte(s), byte(s>>8), byte(s>>16))
		}
		return key(b)
	}
	d := &denseDFA{}
	dead := d.addState() // state 0 is the dead state
	for sym := 0; sym < AlphabetSize; sym++ {
		d.trans[dead][sym] = int32(dead)
	}

	startSet := n.epsClosure([]int{n.start})
	ids := map[key]int{enc(startSet): 0}
	// Reserve: we want start to be its own DFA state distinct from dead.
	startID := d.addState()
	ids[enc(startSet)] = startID
	d.start = startID
	sets := map[int][]int{startID: startSet}
	work := []int{startID}

	anyAccept := func(set []int) bool {
		for _, s := range set {
			if n.accept[s] {
				return true
			}
		}
		return false
	}
	d.accept[startID] = anyAccept(startSet)

	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		set := sets[id]
		// Gather successor sets per symbol.
		succ := make(map[int][]int)
		for _, s := range set {
			for sym, tos := range n.trans[s] {
				succ[sym] = append(succ[sym], tos...)
			}
		}
		for sym := 0; sym < AlphabetSize; sym++ {
			tos, ok := succ[sym]
			if !ok {
				d.trans[id][sym] = int32(dead)
				continue
			}
			cl := n.epsClosure(tos)
			k := enc(cl)
			tid, ok := ids[k]
			if !ok {
				tid = d.addState()
				ids[k] = tid
				sets[tid] = cl
				d.accept[tid] = anyAccept(cl)
				work = append(work, tid)
			}
			d.trans[id][sym] = int32(tid)
		}
	}
	return d
}

// complementDense is the per-symbol reference implementation, the oracle the
// class-indexed construction is differentially tested against.
func (d *denseDFA) complementDense() *denseDFA {
	out := &denseDFA{start: d.start}
	out.trans = make([][]int32, len(d.trans))
	out.accept = make([]bool, len(d.accept))
	for s := range d.trans {
		row := make([]int32, AlphabetSize)
		copy(row, d.trans[s])
		out.trans[s] = row
		out.accept[s] = !d.accept[s]
	}
	return out
}

// intersectDense is the per-symbol reference implementation, the oracle the
// class-indexed construction is differentially tested against.
func (d *denseDFA) intersectDense(o *denseDFA) *denseDFA {
	type pair struct{ a, b int }
	ids := map[pair]int{}
	out := &denseDFA{}
	get := func(p pair) int {
		if id, ok := ids[p]; ok {
			return id
		}
		id := out.addState()
		ids[p] = id
		out.accept[id] = d.accept[p.a] && o.accept[p.b]
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
		for sym := 0; sym < AlphabetSize; sym++ {
			np := pair{int(d.trans[p.a][sym]), int(o.trans[p.b][sym])}
			nid := get(np)
			out.trans[id][sym] = int32(nid)
			if !done[np] {
				done[np] = true
				work = append(work, np)
			}
		}
	}
	return out
}

// isEmptyDense is the per-symbol reference implementation, the oracle the
// class-indexed construction is differentially tested against.
func (d *denseDFA) isEmptyDense() bool {
	if len(d.trans) == 0 {
		return true
	}
	seen := make([]bool, len(d.trans))
	work := []int{d.start}
	seen[d.start] = true
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		if d.accept[s] {
			return false
		}
		for sym := 0; sym < AlphabetSize; sym++ {
			t := int(d.trans[s][sym])
			if t >= 0 && !seen[t] {
				seen[t] = true
				work = append(work, t)
			}
		}
	}
	return true
}

// minWordDense is the per-symbol reference implementation, the oracle the
// class-indexed construction is differentially tested against.
func (d *denseDFA) minWordDense() ([]int, bool) {
	if len(d.trans) == 0 {
		return nil, false
	}
	type back struct {
		prev int
		sym  int
	}
	prev := make([]back, len(d.trans))
	for i := range prev {
		prev[i] = back{-1, -1}
	}
	seen := make([]bool, len(d.trans))
	queue := []int{d.start}
	seen[d.start] = true
	goal := -1
	for i := 0; i < len(queue); i++ {
		s := queue[i]
		if d.accept[s] {
			goal = s
			break
		}
		for sym := 0; sym < AlphabetSize; sym++ {
			t := int(d.trans[s][sym])
			if t >= 0 && !seen[t] {
				seen[t] = true
				prev[t] = back{s, sym}
				queue = append(queue, t)
			}
		}
	}
	if goal < 0 {
		return nil, false
	}
	var rev []int
	for s := goal; s != d.start || len(rev) == 0; {
		b := prev[s]
		if b.prev < 0 {
			break
		}
		rev = append(rev, b.sym)
		s = b.prev
		if s == d.start {
			break
		}
	}
	out := make([]int, len(rev))
	for i, sym := range rev {
		out[len(rev)-1-i] = sym
	}
	return out, true
}

// minimizeDense is the per-symbol reference implementation, the oracle the
// class-indexed construction is differentially tested against.
func (d *denseDFA) minimizeDense() *denseDFA {
	// Restrict to reachable states.
	reach := make([]int, len(d.trans)) // old -> new (compact) or -1
	for i := range reach {
		reach[i] = -1
	}
	var order []int
	work := []int{d.start}
	reach[d.start] = 0
	order = append(order, d.start)
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		for sym := 0; sym < AlphabetSize; sym++ {
			t := int(d.trans[s][sym])
			if reach[t] < 0 {
				reach[t] = len(order)
				order = append(order, t)
				work = append(work, t)
			}
		}
	}
	n := len(order)
	// class[i] for compact index i.
	class := make([]int, n)
	for i, old := range order {
		if d.accept[old] {
			class[i] = 1
		}
	}
	numClasses := 2
	// If all states agree, there is a single class.
	allSame := true
	for i := 1; i < n; i++ {
		if class[i] != class[0] {
			allSame = false
			break
		}
	}
	if allSame {
		numClasses = 1
		for i := range class {
			class[i] = 0
		}
	}
	for {
		// Signature: (class, class of successor per symbol).
		type sigKey string
		next := make([]int, n)
		ids := map[sigKey]int{}
		buf := make([]byte, 0, (AlphabetSize+1)*4)
		for i, old := range order {
			buf = buf[:0]
			buf = appendInt(buf, class[i])
			for sym := 0; sym < AlphabetSize; sym++ {
				t := reach[int(d.trans[old][sym])]
				buf = appendInt(buf, class[t])
			}
			k := sigKey(buf)
			id, ok := ids[k]
			if !ok {
				id = len(ids)
				ids[k] = id
			}
			next[i] = id
		}
		if len(ids) == numClasses {
			class = next
			break
		}
		numClasses = len(ids)
		class = next
	}
	out := &denseDFA{}
	for i := 0; i < numClasses; i++ {
		out.addState()
	}
	for i, old := range order {
		c := class[i]
		out.accept[c] = d.accept[old]
		for sym := 0; sym < AlphabetSize; sym++ {
			out.trans[c][sym] = int32(class[reach[int(d.trans[old][sym])]])
		}
	}
	out.start = class[reach[d.start]]
	return out
}
