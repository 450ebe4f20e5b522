package automata

import (
	"math/rand"
	"slices"
	"testing"
)

// randNFA builds a small random NFA mixing single-symbol edges, byte ranges,
// epsilon moves, and marker edges — enough structure to produce nontrivial
// byte-class partitions and nondeterminism.
func randNFA(r *rand.Rand) *NFA {
	n := NewNFA()
	states := []int{n.Start()}
	for i, k := 0, 1+r.Intn(5); i < k; i++ {
		states = append(states, n.AddState())
	}
	syms := []int{'a', 'b', '\'', '\\', '0', Marker}
	for i, k := 0, 3+r.Intn(12); i < k; i++ {
		from := states[r.Intn(len(states))]
		to := states[r.Intn(len(states))]
		switch r.Intn(5) {
		case 0, 1:
			n.AddEdge(from, syms[r.Intn(len(syms))], to)
		case 2:
			lo := byte(r.Intn(200))
			n.AddByteRange(from, lo, lo+byte(r.Intn(56)), to)
		case 3:
			n.AddEps(from, to)
		default:
			n.AddEdge(from, r.Intn(AlphabetSize), to)
		}
	}
	for _, s := range states {
		if r.Intn(3) == 0 {
			n.SetAccept(s, true)
		}
	}
	return n
}

func randWord(r *rand.Rand) []int {
	w := make([]int, r.Intn(8))
	pool := []int{'a', 'b', '\'', '\\', '0', 'c', 200, Marker}
	for i := range w {
		w[i] = pool[r.Intn(len(pool))]
	}
	return w
}

// dfaEqual reports bit-identity of a DFA and a per-symbol reference: same
// state count and numbering, same start, acceptance, and every transition.
func dfaEqual(a *DFA, b *denseDFA) bool {
	if a.NumStates() != len(b.trans) || a.Start() != b.start {
		return false
	}
	for s := 0; s < a.NumStates(); s++ {
		if a.IsAccept(s) != b.accept[s] {
			return false
		}
		for sym := 0; sym < AlphabetSize; sym++ {
			if a.Step(s, sym) != int(b.trans[s][sym]) {
				return false
			}
		}
	}
	return true
}

// TestDeterminizeMatchesDenseOnRandomNFAs is the central byte-identity
// property: the class-based subset construction must reproduce the
// per-symbol construction exactly — same state numbering, not just the same
// language — so goldens, fingerprints, and witnesses are unchanged.
func TestDeterminizeMatchesDenseOnRandomNFAs(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 80; i++ {
		n := randNFA(r)
		got := n.Determinize()
		want := n.determinizeDense()
		if !dfaEqual(got, want) {
			t.Fatalf("iter %d: class-based Determinize diverged from dense construction", i)
		}
		for j := 0; j < 20; j++ {
			w := randWord(r)
			if got.Accepts(w) != n.Accepts(w) {
				t.Fatalf("iter %d: DFA and NFA disagree on %v", i, w)
			}
		}
	}
}

// TestClassOpsMatchDenseOnRandomDFAs checks every class-indexed DFA
// operation against its dense reference implementation for bit-identical
// output on randomly determinized automata.
func TestClassOpsMatchDenseOnRandomDFAs(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var prev *DFA
	var prevDense *denseDFA
	for i := 0; i < 60; i++ {
		dd := randNFA(r).determinizeDense()
		d := dd.packed()
		if !dfaEqual(d, dd) {
			t.Fatalf("iter %d: FromFunc did not reproduce the dense automaton", i)
		}
		if got, want := d.Minimize(), dd.minimizeDense(); !dfaEqual(got, want) {
			t.Fatalf("iter %d: Minimize diverged from dense", i)
		}
		if got, want := d.Complement(), dd.complementDense(); !dfaEqual(got, want) {
			t.Fatalf("iter %d: Complement diverged from dense", i)
		}
		if got, want := d.IsEmpty(), dd.isEmptyDense(); got != want {
			t.Fatalf("iter %d: IsEmpty %v, dense %v", i, got, want)
		}
		gw, gok := d.MinWord()
		ww, wok := dd.minWordDense()
		if gok != wok || len(gw) != len(ww) {
			t.Fatalf("iter %d: MinWord (%v,%v) vs dense (%v,%v)", i, gw, gok, ww, wok)
		}
		for k := range gw {
			if gw[k] != ww[k] {
				t.Fatalf("iter %d: MinWord %v vs dense %v", i, gw, ww)
			}
		}
		if prev != nil {
			if got, want := prev.Intersect(d), prevDense.intersectDense(dd); !dfaEqual(got, want) {
				t.Fatalf("iter %d: Intersect diverged from dense", i)
			}
		}
		prev, prevDense = d, dd
	}
}

// classesOfNFARefine is the reference for classesOfNFA: it refines a
// 257-entry partition at every state that has a symbol edge, by each
// symbol's target set there.
func classesOfNFARefine(n *NFA) *ByteClasses {
	p := newPartition()
	var sig [AlphabetSize]int32
	setIDs := make(map[string]int32)
	var enc []byte
	for _, k := range n.first {
		if k < 0 {
			continue // uniform signature: refines nothing
		}
		if p.n >= AlphabetSize {
			break
		}
		tos := make(map[int][]int)
		for ; k >= 0; k = n.edges[k].next {
			e := n.edges[k]
			for sym := int(e.lo); sym <= int(e.hi); sym++ {
				tos[sym] = append(tos[sym], int(e.to))
			}
		}
		for i := range sig {
			sig[i] = 0 // 0 = no edge
		}
		for sym, ts := range tos {
			sig[sym] = canonTargetSetID(ts, setIDs, &enc)
		}
		p.refine(sig[:])
	}
	return p.finish()
}

// canonTargetSetID maps the set of states in tos to a dense id ≥ 1 (order-
// and duplicate-insensitive). ids persist across states so equal target
// sets at different states share a signature value — only equality matters
// to refine, so any consistent numbering works.
func canonTargetSetID(tos []int, setIDs map[string]int32, enc *[]byte) int32 {
	set := append([]int(nil), tos...)
	// insertion sort: target lists are tiny
	for i := 1; i < len(set); i++ {
		for j := i; j > 0 && set[j] < set[j-1]; j-- {
			set[j], set[j-1] = set[j-1], set[j]
		}
	}
	b := (*enc)[:0]
	prev := -1
	for _, t := range set {
		if t == prev {
			continue
		}
		prev = t
		b = append(b, byte(t), byte(t>>8), byte(t>>16), byte(t>>24))
	}
	*enc = b
	id, ok := setIDs[string(b)]
	if !ok {
		id = int32(len(setIDs)) + 1
		setIDs[string(b)] = id
	}
	return id
}

// TestClassesOfNFAMatchesRefinement: the one-pass partition is the
// refining reference's, down to the interned pointer.
func TestClassesOfNFAMatchesRefinement(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		n := randNFA(r)
		if got, want := classesOfNFA(n), classesOfNFARefine(n); got != want {
			t.Fatalf("iter %d: one-pass partition %v differs from refinement %v", i, got.class, want.class)
		}
	}
}

// canonicalForm relabels c's states in BFS order from the start over
// ascending classes and lists, per state in that order, its acceptance and
// its successors' labels. It reports false if some state is unreachable.
func canonicalForm(c *DFA) ([]int32, bool) {
	label := make([]int32, c.NumStates())
	for i := range label {
		label[i] = -1
	}
	queue := []int32{c.start}
	label[c.start] = 0
	var out []int32
	for i := 0; i < len(queue); i++ {
		s := int(queue[i])
		if c.accept[s] {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
		for _, t := range c.trans[s*c.nc : (s+1)*c.nc] {
			if label[t] < 0 {
				label[t] = int32(len(queue))
				queue = append(queue, t)
			}
			out = append(out, label[t])
		}
	}
	return out, len(queue) == c.NumStates()
}

// isomorphic reports whether a and b are one automaton up to state
// numbering.
func isomorphic(a, b *DFA) bool {
	fa, oka := canonicalForm(a)
	fb, okb := canonicalForm(b)
	return a.bc == b.bc && oka && okb && slices.Equal(fa, fb)
}

// checkImportantSubsets holds the important-state construction to its
// contract against the full one on n: never more states, the NFA's verdict
// on every word, and after Minimize an automaton isomorphic to
// Determinize().Minimize(). Bit-identity is not required: off the corpus
// the minimized numbering can differ.
func checkImportantSubsets(tb testing.TB, n *NFA, words [][]int) {
	tb.Helper()
	full := n.Determinize()
	imp, ok := n.DeterminizeCapped(0)
	if !ok {
		tb.Fatal("DeterminizeCapped(0) aborted")
	}
	if imp.NumStates() > full.NumStates() {
		tb.Fatalf("important-state DFA has %d states, full construction %d", imp.NumStates(), full.NumStates())
	}
	for _, w := range words {
		if got, want := imp.Accepts(w), n.Accepts(w); got != want {
			tb.Fatalf("important-state DFA says %v on %v, NFA says %v", got, w, want)
		}
	}
	if !isomorphic(imp.Minimize(), full.Minimize()) {
		tb.Fatal("minimized important-state DFA is not isomorphic to the minimized full construction")
	}
}

// TestImportantSubsetsOnRandomNFAs runs the important-state contract on
// random NFAs.
func TestImportantSubsetsOnRandomNFAs(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		n := randNFA(r)
		words := make([][]int, 20)
		for j := range words {
			words[j] = randWord(r)
		}
		checkImportantSubsets(t, n, words)
	}
}

// TestCloserWalkMatchesRows: the graph-walk closure the subset
// construction falls back to past cloBudget sets the same columns as the
// precomputed rows, in both column maps.
func TestCloserWalkMatchesRows(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 500; i++ {
		n := randNFA(r)
		for _, important := range []bool{false, true} {
			col, state := n.subsetColumns(important)
			words := (len(state) + 63) / 64
			rows := &closer{n: n, col: col, words: words, rows: n.closureRows(col, words)}
			walk := &closer{n: n, col: col, words: words, mark: make([]uint32, n.NumStates())}
			for j := 0; j < 10; j++ {
				var targets []int32
				for k := r.Intn(4); k >= 0; k-- {
					targets = append(targets, int32(r.Intn(n.NumStates())))
				}
				got, want := make([]uint64, words), make([]uint64, words)
				walk.close(got, targets)
				rows.close(want, targets)
				if !slices.Equal(got, want) {
					t.Fatalf("iter %d important=%v targets %v: walk %x, rows %x", i, important, targets, got, want)
				}
			}
		}
	}
}

// TestFromFuncRoundtrip checks that FromFunc is lossless on arbitrary total
// transition functions and that its partition is valid and coarsest:
// symbols in one class step identically at every state, class ids are
// numbered by ascending smallest member, and any two classes are told apart
// by some state.
func TestFromFuncRoundtrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		dd := &denseDFA{}
		ns := 1 + r.Intn(5)
		for s := 0; s < ns; s++ {
			dd.addState()
		}
		for s := 0; s < ns; s++ {
			def := int32(r.Intn(ns))
			for sym := range dd.trans[s] {
				dd.trans[s][sym] = def
			}
			for e, k := 0, r.Intn(40); e < k; e++ {
				dd.trans[s][r.Intn(AlphabetSize)] = int32(r.Intn(ns))
			}
			dd.accept[s] = r.Intn(2) == 0
		}
		dd.start = r.Intn(ns)
		d := dd.packed()
		if !dfaEqual(d, dd) {
			t.Fatalf("iter %d: FromFunc not lossless", i)
		}
		bc := d.Classes()
		prevRep := -1
		for cls := 0; cls < bc.NumClasses(); cls++ {
			rep := bc.Rep(cls)
			if rep <= prevRep {
				t.Fatalf("iter %d: class reps not ascending: class %d rep %d after %d", i, cls, rep, prevRep)
			}
			if bc.ClassOf(rep) != cls {
				t.Fatalf("iter %d: rep %d not in its own class", i, rep)
			}
			prevRep = rep
		}
		for sym := 0; sym < AlphabetSize; sym++ {
			rep := bc.Rep(bc.ClassOf(sym))
			if rep > sym {
				t.Fatalf("iter %d: class rep %d larger than member %d", i, rep, sym)
			}
			for s := 0; s < ns; s++ {
				if dd.trans[s][sym] != dd.trans[s][rep] {
					t.Fatalf("iter %d: state %d distinguishes symbol %d from its class rep %d", i, s, sym, rep)
				}
			}
		}
		for a := 0; a < bc.NumClasses(); a++ {
			for b := a + 1; b < bc.NumClasses(); b++ {
				split := false
				for s := 0; s < ns && !split; s++ {
					split = d.StepClass(s, a) != d.StepClass(s, b)
				}
				if !split {
					t.Fatalf("iter %d: classes %d and %d step alike at every state: partition not coarsest", i, a, b)
				}
			}
		}
	}
}

// TestClassesShareInternedPartition checks that structurally equal
// partitions from independent automata intern to one pointer (the relation
// plans key translation caches on it).
func TestClassesShareInternedPartition(t *testing.T) {
	a := FromString("x'y").Determinize().Classes()
	b := FromString("x'y").Determinize().Classes()
	if a != b {
		t.Fatal("equal partitions did not intern to one pointer")
	}
}

// TestInternDedups checks fingerprint interning: independently built equal
// automata collapse to one *DFA; different automata stay distinct.
func TestInternDedups(t *testing.T) {
	a := Intern(FromString("abc").Determinize().Minimize())
	b := Intern(FromString("abc").Determinize().Minimize())
	if a != b {
		t.Fatal("equal DFAs interned to different pointers")
	}
	c := Intern(FromString("abd").Determinize().Minimize())
	if c == a {
		t.Fatal("distinct DFAs interned to one pointer")
	}
}
