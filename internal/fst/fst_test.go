package fst

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"sqlciv/internal/grammar"
	"sqlciv/internal/rx"
)

func applyOne(t *testing.T, f *FST, in string) string {
	t.Helper()
	outs := f.ApplyAll(in, 4)
	if len(outs) != 1 {
		t.Fatalf("ApplyAll(%q) = %v, want exactly one output", in, outs)
	}
	return outs[0]
}

func TestIdentity(t *testing.T) {
	id := Identity()
	for _, s := range []string{"", "abc", "a'b\\c"} {
		if got := applyOne(t, id, s); got != s {
			t.Fatalf("identity(%q) = %q", s, got)
		}
	}
}

func TestAddSlashes(t *testing.T) {
	f := AddSlashes()
	cases := map[string]string{
		"":      "",
		"abc":   "abc",
		"a'b":   `a\'b`,
		`a"b`:   `a\"b`,
		`a\b`:   `a\\b`,
		"it's'": `it\'s\'`,
		"\x00":  `\0`,
	}
	for in, want := range cases {
		if got := applyOne(t, f, in); got != want {
			t.Errorf("addslashes(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestEscapeQuotes(t *testing.T) {
	f := EscapeQuotes()
	if got := applyOne(t, f, "a'b'c"); got != `a\'b\'c` {
		t.Fatalf("escape_quotes = %q", got)
	}
	if got := applyOne(t, f, `a\b`); got != `a\b` {
		t.Fatalf("escape_quotes should not touch backslash: %q", got)
	}
}

// TestFigure6 checks the paper's Figure 6 transducer:
// str_replace("”", "'", subject).
func TestFigure6(t *testing.T) {
	f := SQLQuoteUnescape()
	cases := map[string]string{
		"":       "",
		"a":      "a",
		"''":     "'",
		"''''":   "''",
		"a''b":   "a'b",
		"'":      "'",
		"a'":     "a'",
		"'''":    "''", // first two collapse, third survives
		"x''y''": "x'y'",
	}
	for in, want := range cases {
		if got := applyOne(t, f, in); got != want {
			t.Errorf("fig6(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestReplaceAllStringMatchesStdlib is a property test: the KMP transducer
// agrees with strings.Replace(..., -1) on random inputs.
func TestReplaceAllStringMatchesStdlib(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	patterns := []string{"ab", "aa", "aba", "x", "''", "abcab"}
	repls := []string{"", "Z", "zz", "'"}
	alpha := "aabbcx'"
	for trial := 0; trial < 300; trial++ {
		pat := patterns[r.Intn(len(patterns))]
		rep := repls[r.Intn(len(repls))]
		n := r.Intn(10)
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte(alpha[r.Intn(len(alpha))])
		}
		in := b.String()
		want := strings.Replace(in, pat, rep, -1)
		f := ReplaceAllString(pat, []byte(rep))
		if got := applyOne(t, f, in); got != want {
			t.Fatalf("replace(%q,%q)(%q) = %q, want %q", pat, rep, in, got, want)
		}
	}
}

func TestReplaceAllClass(t *testing.T) {
	var set [256]bool
	for c := 0; c < 256; c++ {
		set[c] = !(c >= '0' && c <= '9')
	}
	f := ReplaceAllClass(&set, nil) // delete all non-digits
	if got := applyOne(t, f, "1a2b'3"); got != "123" {
		t.Fatalf("delete non-digits = %q", got)
	}
}

func TestCharMap(t *testing.T) {
	lower := CharMap(func(b byte) []byte {
		if b >= 'A' && b <= 'Z' {
			return []byte{b - 'A' + 'a'}
		}
		return []byte{b}
	})
	if got := applyOne(t, lower, "AbC"); got != "abc" {
		t.Fatalf("strtolower = %q", got)
	}
}

func TestTrimApproxContainsExact(t *testing.T) {
	f := TrimApprox()
	for _, in := range []string{"", "  a b  ", "ab", "\t x", "x \n", "  "} {
		want := strings.Trim(in, " \t\n\r\x00\v")
		outs := f.ApplyAll(in, 50)
		found := false
		for _, o := range outs {
			if o == want {
				found = true
			}
		}
		if !found {
			t.Errorf("trim(%q): exact result %q not in %v", in, want, outs)
		}
	}
}

func TestIntvalApprox(t *testing.T) {
	// Every output of intval, over every input, is an optionally signed
	// nonempty digit string: range ⊆ L(^-?[0-9]+$).
	f := IntvalApprox()
	intRe, err := rx.Parse(`^-?[0-9]+$`, false)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := intRe.MatchDFA()
	notInt := m.Complement()
	bad := f.RangeNFA().Determinize().Intersect(notInt)
	if !bad.IsEmpty() {
		w, _ := bad.MinWord()
		t.Fatalf("intval range has non-integer output %v", w)
	}
	if f.RangeNFA().Determinize().IsEmpty() {
		t.Fatal("intval range empty")
	}
}

func TestPregReplaceGeneralContainsExact(t *testing.T) {
	re, err := rx.Parse("a([0-9]*)b", false)
	if err != nil {
		t.Fatal(err)
	}
	f := PregReplaceGeneral(re, `x\1\1y`)
	// The paper's §3.1.2 example: preg_replace("/a([0-9]*)b/","x\1\1y",...)
	// duplicates the captured digits. Check through the grammar image of
	// the singleton language {"a01b"}: the exact result "x0101y" and the
	// unreplaced copy-through variant must both be derivable.
	g := grammar.New()
	s := g.NewNT("S")
	g.AddString(s, "a01b")
	root, ok := ImageInto(g, s, f, nil)
	if !ok {
		t.Fatal("image empty")
	}
	if !g.DerivesString(root, "x0101y") {
		t.Fatal("exact replacement missing from image")
	}
	if !g.DerivesString(root, "a01b") {
		t.Fatal("copy-through variant missing from image")
	}
	// Backreference over-approximation: independent group copies appear.
	if !g.DerivesString(root, "x0123y") {
		t.Fatal("over-approximated backreference variant missing")
	}
}

func TestPregReplaceGeneralApplySmall(t *testing.T) {
	re, err := rx.Parse("q", false)
	if err != nil {
		t.Fatal(err)
	}
	f := PregReplaceGeneral(re, "Q")
	outs := f.ApplyAll("aqb", 50)
	has := func(want string) bool {
		for _, o := range outs {
			if o == want {
				return true
			}
		}
		return false
	}
	if !has("aQb") || !has("aqb") {
		t.Fatalf("outputs = %v", outs)
	}
}

// TestPregReplaceGeneralDeterministic: rebuilding the transducer for one
// pattern wires the same edges in the same order. The pattern's NFA edges
// are copied in NFA.Edges order, so that order must not vary between
// builds (it did while NFA edges lived in per-state maps).
func TestPregReplaceGeneralDeterministic(t *testing.T) {
	for _, c := range []struct{ pattern, repl string }{
		{`[a-c]+x|y[0-9]`, "Z"},
		{`([a-c]+)x|y([0-9])`, `<\1\2>`},
	} {
		build := func() *FST {
			re, err := rx.Parse(c.pattern, false)
			if err != nil {
				t.Fatal(err)
			}
			return PregReplaceGeneral(re, c.repl)
		}
		first := build()
		for i := 0; i < 10; i++ {
			again := build()
			if !reflect.DeepEqual(first.edges, again.edges) || !reflect.DeepEqual(first.accept, again.accept) {
				t.Fatalf("%q: rebuild %d wired a different edge list", c.pattern, i+1)
			}
		}
	}
}

func TestRangeNFA(t *testing.T) {
	f := AddSlashes()
	n := f.RangeNFA()
	// Outputs of addslashes never contain an unescaped quote... the range
	// as a set: "a\'b" is a possible output; "a'b" is NOT (quote always
	// preceded by backslash in outputs).
	if !n.AcceptsString(`a\'b`) {
		t.Fatal("range should contain escaped output")
	}
	if n.AcceptsString("'") {
		t.Fatal("bare quote cannot be an addslashes output")
	}
	if !n.AcceptsString("") || !n.AcceptsString("abc") {
		t.Fatal("range misses plain outputs")
	}
}

func TestRangeNFAFinalOutput(t *testing.T) {
	f := ReplaceAllString("ab", []byte("Z"))
	n := f.RangeNFA()
	// Input "a" produces output "a" via the final output flush.
	if !n.AcceptsString("a") {
		t.Fatal("final output missing from range")
	}
	if !n.AcceptsString("Z") || !n.AcceptsString("xZy") {
		t.Fatal("replacement outputs missing from range")
	}
}

// ---- ImageInto -----------------------------------------------------------

func TestImageSimple(t *testing.T) {
	g := grammar.New()
	s := g.NewNT("S")
	g.AddString(s, "a'b")
	root, ok := ImageInto(g, s, AddSlashes(), nil)
	if !ok {
		t.Fatal("image empty")
	}
	if !g.DerivesString(root, `a\'b`) {
		t.Fatal("image lost the escaped string")
	}
	if g.DerivesString(root, "a'b") {
		t.Fatal("image contains unescaped original")
	}
	w, _ := g.WitnessString(root)
	if w != `a\'b` {
		t.Fatalf("witness = %q", w)
	}
}

func TestImageRecursiveGrammar(t *testing.T) {
	// L = '^n $ quotes: S -> ' S | ε ; image under EscapeQuotes = (\')^n.
	g := grammar.New()
	s := g.NewNT("S")
	g.Add(s, grammar.T('\''), s)
	g.Add(s)
	root, ok := ImageInto(g, s, EscapeQuotes(), nil)
	if !ok {
		t.Fatal("image empty")
	}
	for _, tc := range []struct {
		in   string
		want bool
	}{
		{"", true}, {`\'`, true}, {`\'\'`, true},
		{"'", false}, {`\'\`, false},
	} {
		if got := g.DerivesString(root, tc.in); got != tc.want {
			t.Errorf("image derives(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestImageTaintPropagation(t *testing.T) {
	g := grammar.New()
	s := g.NewNT("S")
	u := g.NewNT("U")
	g.AddLabel(u, grammar.Direct)
	g.Add(s, append(grammar.TermString("x="), u)...)
	g.AddString(u, "a'b")
	root, ok := ImageInto(g, s, AddSlashes(), nil)
	if !ok {
		t.Fatal("image empty")
	}
	if !g.DerivesString(root, `x=a\'b`) {
		t.Fatal("image language wrong")
	}
	// A direct-labeled NT must derive the transformed user part.
	found := false
	for i, reach := range g.Reachable(root) {
		if !reach {
			continue
		}
		nt := grammar.Sym(grammar.NumTerminals + i)
		if nt != root && g.HasLabel(nt, grammar.Direct) && g.DerivesString(nt, `a\'b`) {
			found = true
		}
	}
	if !found {
		t.Fatal("taint lost through FST image")
	}
}

func TestImageFinalOutput(t *testing.T) {
	// ReplaceAllString("ab","Z") on language {"a"} must produce {"a"} via
	// the pending-prefix final output.
	g := grammar.New()
	s := g.NewNT("S")
	g.AddString(s, "a")
	g.AddString(s, "ab")
	root, ok := ImageInto(g, s, ReplaceAllString("ab", []byte("Z")), nil)
	if !ok {
		t.Fatal("image empty")
	}
	if !g.DerivesString(root, "a") || !g.DerivesString(root, "Z") {
		t.Fatal("image wrong with final outputs")
	}
	if g.DerivesString(root, "ab") {
		t.Fatal("unreplaced ab must not be in deterministic image")
	}
}

func TestImageEmptyWhenNoAcceptingRun(t *testing.T) {
	// A transducer that accepts nothing.
	f := New() // start state never accepting, no edges
	g := grammar.New()
	s := g.NewNT("S")
	g.AddString(s, "x")
	if _, ok := ImageInto(g, s, f, nil); ok {
		t.Fatal("image of empty transduction should be empty")
	}
}

func TestImageOfEmptyString(t *testing.T) {
	g := grammar.New()
	s := g.NewNT("S")
	g.Add(s) // epsilon only
	root, ok := ImageInto(g, s, AddSlashes(), nil)
	if !ok {
		t.Fatal("image empty")
	}
	if !g.DerivesString(root, "") || g.DerivesString(root, "x") {
		t.Fatal("image of epsilon wrong")
	}
}

func TestImageLongRHSNormalization(t *testing.T) {
	g := grammar.New()
	s := g.NewNT("S")
	a := g.NewNT("A")
	g.Add(s, a, grammar.T('\''), a, grammar.T('\''), a)
	g.AddString(a, "q")
	root, ok := ImageInto(g, s, EscapeQuotes(), nil)
	if !ok {
		t.Fatal("image empty")
	}
	if !g.DerivesString(root, `q\'q\'q`) {
		t.Fatal("normalized image wrong")
	}
}
