package rx

import (
	"strings"
	"testing"
	"testing/quick"

	"sqlciv/internal/automata"
)

func mustParse(t *testing.T, pat string, ci bool) *Regex {
	t.Helper()
	re, err := Parse(pat, ci)
	if err != nil {
		t.Fatalf("Parse(%q): %v", pat, err)
	}
	return re
}

// matchDFA returns re's match DFA, failing t when it is past the state cap.
func matchDFA(t testing.TB, re *Regex) *automata.DFA {
	t.Helper()
	d, ok := re.MatchDFA()
	if !ok {
		t.Fatalf("%q: match DFA past the state cap", re.Source)
	}
	return d
}

// complementDFA is matchDFA for ComplementMatchDFA.
func complementDFA(t testing.TB, re *Regex) *automata.DFA {
	t.Helper()
	d, ok := re.ComplementMatchDFA()
	if !ok {
		t.Fatalf("%q: complement DFA past the state cap", re.Source)
	}
	return d
}

func TestLiteralAndConcat(t *testing.T) {
	re := mustParse(t, "abc", false)
	n := re.NFA()
	if !n.AcceptsString("abc") || n.AcceptsString("ab") || n.AcceptsString("abcd") {
		t.Fatal("literal language wrong")
	}
}

func TestAlternationAndGroups(t *testing.T) {
	re := mustParse(t, "(ab|cd)e", false)
	n := re.NFA()
	for _, s := range []string{"abe", "cde"} {
		if !n.AcceptsString(s) {
			t.Fatalf("should accept %q", s)
		}
	}
	if n.AcceptsString("e") || n.AcceptsString("abcde") {
		t.Fatal("accepts too much")
	}
	if re.NumGroups != 1 {
		t.Fatalf("NumGroups = %d", re.NumGroups)
	}
}

func TestQuantifiers(t *testing.T) {
	cases := []struct {
		pat    string
		accept []string
		reject []string
	}{
		{"a*", []string{"", "a", "aaa"}, []string{"b", "ab"}},
		{"a+", []string{"a", "aa"}, []string{""}},
		{"a?b", []string{"b", "ab"}, []string{"aab", ""}},
		{"a{3}", []string{"aaa"}, []string{"aa", "aaaa"}},
		{"a{2,}", []string{"aa", "aaaa"}, []string{"a"}},
		{"a{1,3}", []string{"a", "aa", "aaa"}, []string{"", "aaaa"}},
		{"a*?b", []string{"b", "aab"}, []string{"a"}},
		{"'{129}", []string{strings.Repeat("'", 129)}, []string{strings.Repeat("'", 128), strings.Repeat("'", 130)}},
		{"a{1,255}", []string{"a", strings.Repeat("a", 255)}, []string{"", strings.Repeat("a", 256)}},
	}
	for _, tc := range cases {
		n := mustParse(t, tc.pat, false).NFA()
		for _, s := range tc.accept {
			if !n.AcceptsString(s) {
				t.Errorf("%q should accept %q", tc.pat, s)
			}
		}
		for _, s := range tc.reject {
			if n.AcceptsString(s) {
				t.Errorf("%q should reject %q", tc.pat, s)
			}
		}
	}
}

func TestClasses(t *testing.T) {
	n := mustParse(t, "[a-c0-9_]", false).NFA()
	for _, s := range []string{"a", "b", "c", "0", "9", "_"} {
		if !n.AcceptsString(s) {
			t.Errorf("class should accept %q", s)
		}
	}
	for _, s := range []string{"d", "A", "", "ab"} {
		if n.AcceptsString(s) {
			t.Errorf("class should reject %q", s)
		}
	}
	neg := mustParse(t, "[^a-z]", false).NFA()
	if neg.AcceptsString("q") || !neg.AcceptsString("Q") || !neg.AcceptsString("'") {
		t.Fatal("negated class wrong")
	}
	// ']' first in class is a literal.
	br := mustParse(t, "[]]", false).NFA()
	if !br.AcceptsString("]") {
		t.Fatal("leading ] not literal")
	}
}

func TestEscapes(t *testing.T) {
	d := mustParse(t, `\d+`, false).NFA()
	if !d.AcceptsString("123") || d.AcceptsString("12a") {
		t.Fatal("\\d wrong")
	}
	w := mustParse(t, `\w`, false).NFA()
	if !w.AcceptsString("_") || w.AcceptsString("-") {
		t.Fatal("\\w wrong")
	}
	s := mustParse(t, `\s`, false).NFA()
	if !s.AcceptsString(" ") || s.AcceptsString("x") {
		t.Fatal("\\s wrong")
	}
	hx := mustParse(t, `\x41`, false).NFA()
	if !hx.AcceptsString("A") {
		t.Fatal("\\x41 wrong")
	}
	esc := mustParse(t, `\.\*\[`, false).NFA()
	if !esc.AcceptsString(".*[") {
		t.Fatal("escaped metachars wrong")
	}
	cls := mustParse(t, `[\d\-]`, false).NFA()
	if !cls.AcceptsString("5") || !cls.AcceptsString("-") {
		t.Fatal("class escapes wrong")
	}
}

func TestDot(t *testing.T) {
	n := mustParse(t, "a.c", false).NFA()
	if !n.AcceptsString("abc") || !n.AcceptsString("a'c") {
		t.Fatal("dot wrong")
	}
	if n.AcceptsString("a\nc") {
		t.Fatal("dot should not match newline")
	}
}

func TestCaseInsensitive(t *testing.T) {
	n := mustParse(t, "abc", true).NFA()
	for _, s := range []string{"abc", "ABC", "AbC"} {
		if !n.AcceptsString(s) {
			t.Errorf("ci should accept %q", s)
		}
	}
	cls := mustParse(t, "[a-f]+", true).NFA()
	if !cls.AcceptsString("DEAD") {
		t.Fatal("ci class wrong")
	}
}

func TestAnchorsAndMatchLang(t *testing.T) {
	// Unanchored: the Figure 2 bug — [0-9]+ matches anywhere.
	re := mustParse(t, "[0-9]+", false)
	if re.AnchorStart || re.AnchorEnd {
		t.Fatal("spurious anchors")
	}
	m := matchDFA(t, re)
	for _, s := range []string{"123", "abc1", "1'; DROP TABLE x; --"} {
		if !m.AcceptsString(s) {
			t.Errorf("unanchored match should accept %q", s)
		}
	}
	if m.AcceptsString("abc") {
		t.Fatal("no digit should not match")
	}
	// Anchored: only pure digit strings.
	re2 := mustParse(t, `^[\d]+$`, false)
	if !re2.AnchorStart || !re2.AnchorEnd {
		t.Fatal("anchors not detected")
	}
	m2 := matchDFA(t, re2)
	if !m2.AcceptsString("42") || m2.AcceptsString("4 2") || m2.AcceptsString("1'; --") {
		t.Fatal("anchored match language wrong")
	}
	// Complement of the anchored match.
	c2 := complementDFA(t, re2)
	if c2.AcceptsString("42") || !c2.AcceptsString("1'; --") {
		t.Fatal("complement wrong")
	}
}

func TestComplementIsExactComplement(t *testing.T) {
	re := mustParse(t, "[0-9]+", false)
	m := matchDFA(t, re)
	c := complementDFA(t, re)
	f := func(b []byte) bool {
		syms := make([]int, len(b))
		for i, v := range b {
			syms[i] = int(v)
		}
		return m.Accepts(syms) != c.Accepts(syms)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestParsePHP(t *testing.T) {
	re, err := ParsePHP(`/^[\d]+$/`)
	if err != nil {
		t.Fatal(err)
	}
	if !re.AnchorStart || !re.AnchorEnd {
		t.Fatal("delimited anchors lost")
	}
	rei, err := ParsePHP(`/abc/i`)
	if err != nil {
		t.Fatal(err)
	}
	if !rei.CaseInsensitive {
		t.Fatal("flag i lost")
	}
	if _, err := ParsePHP(`/a/m`); err == nil {
		t.Fatal("unsupported flag accepted")
	}
	if _, err := ParsePHP(`x`); err == nil {
		t.Fatal("short pattern accepted")
	}
	if _, err := ParsePHP(`/abc`); err == nil {
		t.Fatal("unterminated pattern accepted")
	}
}

func TestRejects(t *testing.T) {
	for _, pat := range []string{
		"a(b", "a)b" /* dangling */, "*a", "a{2,1}", "a{", "[a-", "[z-a]",
		`a\`, "a^b", `(?=x)`, `(\1)`,
		// Counted repetitions expanding past maxExpansion nodes, nested
		// counts multiplied.
		"a{1025}", "a{0,99999999999999999999}", "(a{100}){100}", "((a{10}){10}){11}",
	} {
		if _, err := Parse(pat, false); err == nil {
			t.Errorf("Parse(%q) should fail", pat)
		}
	}
}

func TestFindGroup(t *testing.T) {
	re := mustParse(t, `a([0-9]*)b(x|y)`, false)
	if re.NumGroups != 2 {
		t.Fatalf("NumGroups = %d", re.NumGroups)
	}
	g1 := re.FindGroup(1)
	if g1 == nil {
		t.Fatal("group 1 missing")
	}
	n := CompileNode(g1)
	if !n.AcceptsString("123") || !n.AcceptsString("") || n.AcceptsString("x") {
		t.Fatal("group 1 language wrong")
	}
	g2 := re.FindGroup(2)
	n2 := CompileNode(g2)
	if !n2.AcceptsString("x") || !n2.AcceptsString("y") || n2.AcceptsString("") {
		t.Fatal("group 2 language wrong")
	}
	if re.FindGroup(3) != nil {
		t.Fatal("phantom group")
	}
}

func TestNonCapturingGroup(t *testing.T) {
	re := mustParse(t, `(?:ab)+`, false)
	if re.NumGroups != 0 {
		t.Fatalf("NumGroups = %d", re.NumGroups)
	}
	n := re.NFA()
	if !n.AcceptsString("abab") || n.AcceptsString("aba") {
		t.Fatal("non-capturing group language wrong")
	}
}

func TestDollarEscapeNotAnchor(t *testing.T) {
	re := mustParse(t, `ab\$`, false)
	if re.AnchorEnd {
		t.Fatal("escaped $ treated as anchor")
	}
	if !re.NFA().AcceptsString("ab$") {
		t.Fatal("escaped $ not literal")
	}
}

func TestEregiStyle(t *testing.T) {
	// The paper's Figure 2 guard: eregi('[0-9]+', $userid) — unanchored, ci.
	re := mustParse(t, "[0-9]+", true)
	m := matchDFA(t, re)
	if !m.AcceptsString("1'; DROP TABLE unp_user; --") {
		t.Fatal("the Figure 2 attack must pass the unanchored guard")
	}
}

func TestPOSIXClasses(t *testing.T) {
	d := matchDFA(t, mustParse(t, `^[[:digit:]]+$`, false))
	if !d.AcceptsString("42") || d.AcceptsString("4a") {
		t.Fatal("[:digit:] wrong")
	}
	a := mustParse(t, `[[:alpha:][:digit:]_]+`, false).NFA()
	if !a.AcceptsString("ab1_") || a.AcceptsString("-") {
		t.Fatal("combined POSIX classes wrong")
	}
	n := mustParse(t, `[^[:space:]]+`, false).NFA()
	if !n.AcceptsString("x'y") || n.AcceptsString("a b") {
		t.Fatal("negated POSIX class wrong")
	}
	x := mustParse(t, `[[:xdigit:]]{2}`, false).NFA()
	if !x.AcceptsString("fA") || x.AcceptsString("g0") {
		t.Fatal("[:xdigit:] wrong")
	}
	if _, err := Parse(`[[:bogus:]]`, false); err == nil {
		t.Fatal("unknown POSIX class accepted")
	}
	if _, err := Parse(`[[:digit`, false); err == nil {
		t.Fatal("unterminated POSIX class accepted")
	}
}

func TestPOSIXClassMalformed(t *testing.T) {
	// Regression: fuzzing found "[[:]" sliced out of bounds.
	for _, pat := range []string{"[[:]", "[[:", "[[::]", "[[:]]"} {
		if _, err := Parse(pat, false); err == nil {
			t.Errorf("Parse(%q) should fail", pat)
		}
	}
}

// TestMatchDFAStateCap: ^.*a.{n}$ determinizes to 2^(n+1)+2 states, so
// n = 12 (8,194) is past the cap and both DFAs report failure, while
// n = 10 (2,050) is built exactly.
func TestMatchDFAStateCap(t *testing.T) {
	re := mustParse(t, `^.*a.{12}$`, false)
	if _, ok := re.MatchDFA(); ok {
		t.Fatal("MatchDFA built a DFA past the state cap")
	}
	if _, ok := re.ComplementMatchDFA(); ok {
		t.Fatal("ComplementMatchDFA built a DFA past the state cap")
	}
	under := mustParse(t, `^.*a.{10}$`, false)
	m, c := matchDFA(t, under), complementDFA(t, under)
	for _, s := range []string{"a0123456789", "xxa0123456789", "a012345678", "ab0123456789"} {
		want := len(s) >= 11 && s[len(s)-11] == 'a'
		if m.AcceptsString(s) != want || c.AcceptsString(s) == want {
			t.Fatalf("%q: match %t, complement %t; want match %t", s, m.AcceptsString(s), c.AcceptsString(s), want)
		}
	}
}
