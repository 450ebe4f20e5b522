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

// dfaEqual reports bit-identity of two DFAs: same state count and numbering,
// same start, acceptance, and every transition.
func dfaEqual(a, b *DFA) bool {
	if a.NumStates() != b.NumStates() || a.Start() != b.Start() {
		return false
	}
	for s := 0; s < a.NumStates(); s++ {
		if a.IsAccept(s) != b.IsAccept(s) {
			return false
		}
		for sym := 0; sym < AlphabetSize; sym++ {
			if a.Step(s, sym) != b.Step(s, sym) {
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
	for i := 0; i < 60; i++ {
		d := randNFA(r).determinizeDense()
		if got, want := d.Minimize(), d.minimizeDense(); !dfaEqual(got, want) {
			t.Fatalf("iter %d: Minimize diverged from dense", i)
		}
		if got, want := d.Complement(), d.complementDense(); !dfaEqual(got, want) {
			t.Fatalf("iter %d: Complement diverged from dense", i)
		}
		if got, want := d.IsEmpty(), d.isEmptyDense(); got != want {
			t.Fatalf("iter %d: IsEmpty %v, dense %v", i, got, want)
		}
		gw, gok := d.MinWord()
		ww, wok := d.minWordDense()
		if gok != wok || len(gw) != len(ww) {
			t.Fatalf("iter %d: MinWord (%v,%v) vs dense (%v,%v)", i, gw, gok, ww, wok)
		}
		for k := range gw {
			if gw[k] != ww[k] {
				t.Fatalf("iter %d: MinWord %v vs dense %v", i, gw, ww)
			}
		}
		if prev != nil {
			if got, want := prev.Intersect(d), prev.intersectDense(d); !dfaEqual(got, want) {
				t.Fatalf("iter %d: Intersect diverged from dense", i)
			}
		}
		prev = d
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
	for _, m := range n.trans {
		if len(m) == 0 {
			continue // uniform signature: refines nothing
		}
		if p.n >= AlphabetSize {
			break
		}
		for i := range sig {
			sig[i] = 0 // 0 = no edge
		}
		for sym, tos := range m {
			sig[sym] = canonTargetSetID(tos, setIDs, &enc)
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
func canonicalForm(c *CDFA) ([]int32, bool) {
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
			if t >= 0 && label[t] < 0 {
				label[t] = int32(len(queue))
				queue = append(queue, t)
			}
			if t >= 0 {
				t = label[t]
			}
			out = append(out, t)
		}
	}
	return out, len(queue) == c.NumStates()
}

// isomorphic reports whether a and b are one automaton up to state
// numbering.
func isomorphic(a, b *CDFA) bool {
	fa, oka := canonicalForm(a)
	fb, okb := canonicalForm(b)
	return a.bc == b.bc && oka && okb && slices.Equal(fa, fb)
}

// checkImportantSubsets holds the important-state construction to its
// contract against the full one on n: never more states, the NFA's verdict
// on every word, and after Minimize an automaton isomorphic to
// DeterminizeC().Minimize(). Bit-identity is not required: off the corpus
// the minimized numbering can differ.
func checkImportantSubsets(tb testing.TB, n *NFA, words [][]int) {
	tb.Helper()
	full := n.DeterminizeC()
	imp, ok := n.DeterminizeCappedC(0)
	if !ok {
		tb.Fatal("DeterminizeCappedC(0) aborted")
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

// TestCompressRoundtrip checks that Compress is lossless on arbitrary
// (including incomplete) DFAs and that the partition is valid: symbols in
// one class step identically at every state, and class ids are numbered by
// ascending smallest member.
func TestCompressRoundtrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		d := NewDFA()
		ns := 1 + r.Intn(5)
		for s := 0; s < ns; s++ {
			d.AddState()
		}
		for s := 0; s < ns; s++ {
			for e, k := 0, r.Intn(40); e < k; e++ {
				d.SetEdge(s, r.Intn(AlphabetSize), r.Intn(ns))
			}
			d.SetAccept(s, r.Intn(2) == 0)
		}
		d.SetStart(r.Intn(ns))
		c := d.Compress()
		if !dfaEqual(c.Decompress(), d) {
			t.Fatalf("iter %d: Compress/Decompress not lossless", i)
		}
		bc := c.Classes()
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
			for s := 0; s < d.NumStates(); s++ {
				if d.Step(s, sym) != d.Step(s, rep) {
					t.Fatalf("iter %d: state %d distinguishes symbol %d from its class rep %d", i, s, sym, rep)
				}
			}
		}
	}
}

// TestClassesShareInternedPartition checks that structurally equal
// partitions from independent automata intern to one pointer (the relation
// plans key translation caches on it).
func TestClassesShareInternedPartition(t *testing.T) {
	a := FromString("x'y").Determinize().Compressed().Classes()
	b := FromString("x'y").Determinize().Compressed().Classes()
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

// TestMutationInvalidatesCaches checks that mutating a DFA drops both the
// compressed snapshot and the completeness flag.
func TestMutationInvalidatesCaches(t *testing.T) {
	d := NewDFA()
	s0, s1 := d.AddState(), d.AddState()
	for sym := 0; sym < AlphabetSize; sym++ {
		d.SetEdge(s0, sym, s0)
		d.SetEdge(s1, sym, s1)
	}
	d.SetStart(s0)
	d.SetAccept(s1, true)
	c1 := d.Compressed()
	if c1.NumClasses() != 1 {
		t.Fatalf("uniform DFA should have 1 class, got %d", c1.NumClasses())
	}
	d.Complete() // already total: must not add a dead state
	if d.NumStates() != 2 {
		t.Fatalf("Complete added a state to a total DFA: %d states", d.NumStates())
	}
	d.SetEdge(s0, 'x', s1)
	c2 := d.Compressed()
	if c2 == c1 {
		t.Fatal("Compressed cache survived SetEdge")
	}
	if c2.Step(s0, 'x') != s1 || c2.NumClasses() != 2 {
		t.Fatalf("recompressed form stale: step=%d classes=%d", c2.Step(s0, 'x'), c2.NumClasses())
	}
	// A fresh state reopens completeness: Complete must fill its row even
	// though the DFA was previously marked total.
	s2 := d.AddState()
	d.Complete()
	if d.Step(s2, 'a') < 0 {
		t.Fatal("Complete skipped a DFA whose total flag should have been invalidated")
	}
}
