package automata

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func symsOf(s string) []int {
	out := make([]int, len(s))
	for i := 0; i < len(s); i++ {
		out[i] = int(s[i])
	}
	return out
}

func TestFromString(t *testing.T) {
	n := FromString("abc")
	if !n.AcceptsString("abc") {
		t.Fatal("should accept abc")
	}
	for _, bad := range []string{"", "ab", "abcd", "abd"} {
		if n.AcceptsString(bad) {
			t.Fatalf("should reject %q", bad)
		}
	}
}

func TestUnionConcatStar(t *testing.T) {
	a := FromString("ab")
	b := FromString("cd")
	u := Union(a, b)
	for _, s := range []string{"ab", "cd"} {
		if !u.AcceptsString(s) {
			t.Fatalf("union should accept %q", s)
		}
	}
	if u.AcceptsString("abcd") || u.AcceptsString("") {
		t.Fatal("union accepts too much")
	}
	c := Concat(a, b)
	if !c.AcceptsString("abcd") {
		t.Fatal("concat should accept abcd")
	}
	if c.AcceptsString("ab") || c.AcceptsString("cd") || c.AcceptsString("") {
		t.Fatal("concat accepts too much")
	}
	st := Star(a)
	for _, s := range []string{"", "ab", "abab", "ababab"} {
		if !st.AcceptsString(s) {
			t.Fatalf("star should accept %q", s)
		}
	}
	if st.AcceptsString("a") || st.AcceptsString("aba") {
		t.Fatal("star accepts too much")
	}
}

func TestEpsilonAndEmpty(t *testing.T) {
	e := EpsilonLang()
	if !e.AcceptsString("") || e.AcceptsString("x") {
		t.Fatal("epsilon language wrong")
	}
	m := EmptyLang()
	if m.AcceptsString("") || m.AcceptsString("x") {
		t.Fatal("empty language wrong")
	}
}

func TestSigmaStarAnyByte(t *testing.T) {
	ss := SigmaStar()
	for _, s := range []string{"", "hello", "\x00\xff"} {
		if !ss.AcceptsString(s) {
			t.Fatalf("sigma* should accept %q", s)
		}
	}
	if ss.Accepts([]int{Marker}) {
		t.Fatal("sigma* must not accept the marker")
	}
	ab := AnyByte()
	if !ab.AcceptsString("z") || ab.AcceptsString("") || ab.AcceptsString("zz") {
		t.Fatal("AnyByte wrong")
	}
}

// randomNFA builds a small random NFA over a tiny alphabet for property
// testing determinize/minimize equivalence.
func randomNFA(r *rand.Rand) *NFA {
	n := NewNFA()
	states := []int{n.Start()}
	for i := 0; i < 4; i++ {
		states = append(states, n.AddState())
	}
	alphabet := []int{'a', 'b'}
	for i := 0; i < 12; i++ {
		from := states[r.Intn(len(states))]
		to := states[r.Intn(len(states))]
		if r.Intn(5) == 0 {
			n.AddEps(from, to)
		} else {
			n.AddEdge(from, alphabet[r.Intn(2)], to)
		}
	}
	for _, s := range states {
		if r.Intn(3) == 0 {
			n.SetAccept(s, true)
		}
	}
	return n
}

func randomWord(r *rand.Rand) []int {
	w := make([]int, r.Intn(7))
	for i := range w {
		if r.Intn(2) == 0 {
			w[i] = 'a'
		} else {
			w[i] = 'b'
		}
	}
	return w
}

func TestDeterminizeEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := randomNFA(r)
		d := n.Determinize()
		for w := 0; w < 40; w++ {
			word := randomWord(r)
			if n.Accepts(word) != d.Accepts(word) {
				t.Fatalf("trial %d: NFA and DFA disagree on %v", trial, word)
			}
		}
	}
}

func TestMinimizeEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := randomNFA(r)
		d := n.Determinize()
		m := d.Minimize()
		if m.NumStates() > d.NumStates() {
			t.Fatalf("minimize grew the automaton: %d > %d", m.NumStates(), d.NumStates())
		}
		for w := 0; w < 40; w++ {
			word := randomWord(r)
			if d.Accepts(word) != m.Accepts(word) {
				t.Fatalf("trial %d: minimized DFA disagrees on %v", trial, word)
			}
		}
	}
}

func TestComplement(t *testing.T) {
	d := FromString("ab").Determinize()
	c := d.Complement()
	if c.AcceptsString("ab") {
		t.Fatal("complement accepts ab")
	}
	for _, s := range []string{"", "a", "abc", "x"} {
		if !c.AcceptsString(s) {
			t.Fatalf("complement should accept %q", s)
		}
	}
}

func TestComplementProperty(t *testing.T) {
	d := Union(FromString("x"), Star(FromString("yz"))).Determinize()
	c := d.Complement()
	f := func(b []byte) bool {
		syms := make([]int, len(b))
		for i, v := range b {
			syms[i] = int(v)
		}
		return d.Accepts(syms) != c.Accepts(syms)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIntersect(t *testing.T) {
	// strings over {a,b} with even length ∩ strings starting with 'a'
	even := NewNFA()
	s1 := even.AddState()
	even.SetAccept(even.Start(), true)
	even.AddEdge(even.Start(), 'a', s1)
	even.AddEdge(even.Start(), 'b', s1)
	even.AddEdge(s1, 'a', even.Start())
	even.AddEdge(s1, 'b', even.Start())

	startsA := Concat(FromString("a"), SigmaStar())

	d := even.Determinize().Intersect(startsA.Determinize())
	cases := map[string]bool{
		"ab": true, "aa": true, "abab": true,
		"a": false, "ba": false, "": false, "aba": false,
	}
	for s, want := range cases {
		if got := d.AcceptsString(s); got != want {
			t.Errorf("intersect(%q) = %v, want %v", s, got, want)
		}
	}
}

func TestIsEmptyAndMinWord(t *testing.T) {
	d := FromString("hello").Determinize()
	if d.IsEmpty() {
		t.Fatal("not empty")
	}
	w, ok := d.MinWord()
	if !ok || string(bytesOf(w)) != "hello" {
		t.Fatalf("MinWord = %v, %v", w, ok)
	}
	e := EmptyLang().Determinize()
	if !e.IsEmpty() {
		t.Fatal("empty language not detected")
	}
	if _, ok := e.MinWord(); ok {
		t.Fatal("MinWord on empty language")
	}
	// Empty string acceptance.
	eps := EpsilonLang().Determinize()
	w, ok = eps.MinWord()
	if !ok || len(w) != 0 {
		t.Fatalf("MinWord on epsilon = %v, %v", w, ok)
	}
}

func bytesOf(syms []int) []byte {
	out := make([]byte, len(syms))
	for i, s := range syms {
		out[i] = byte(s)
	}
	return out
}

func TestMinWordIsShortest(t *testing.T) {
	// Language: "aaaa" | "bb"
	d := Union(FromString("aaaa"), FromString("bb")).Determinize()
	w, ok := d.MinWord()
	if !ok || string(bytesOf(w)) != "bb" {
		t.Fatalf("MinWord = %q, want bb", bytesOf(w))
	}
}

func TestMarkerTransitions(t *testing.T) {
	n := NewNFA()
	acc := n.AddState()
	n.SetAccept(acc, true)
	n.AddEdge(n.Start(), Marker, acc)
	d := n.Determinize()
	if !d.Accepts([]int{Marker}) {
		t.Fatal("marker edge lost in determinization")
	}
	if d.Accepts([]int{'a'}) {
		t.Fatal("byte accepted instead of marker")
	}
}
