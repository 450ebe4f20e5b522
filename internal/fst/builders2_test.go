package fst

import (
	"testing"

	"sqlciv/internal/grammar"
)

func TestStripSlashes(t *testing.T) {
	f := StripSlashes()
	cases := map[string]string{
		``:     ``,
		`abc`:  `abc`,
		`a\'b`: `a'b`,
		`a\\b`: `a\b`,
		`a\`:   `a`,
		`\\\'`: `\'`,
	}
	for in, want := range cases {
		if got := applyOne(t, f, in); got != want {
			t.Errorf("stripslashes(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestUcFirst(t *testing.T) {
	f := UcFirst()
	for in, want := range map[string]string{"": "", "abc": "Abc", "Abc": "Abc", "9a": "9a"} {
		if got := applyOne(t, f, in); got != want {
			t.Errorf("ucfirst(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSubstrLanguage(t *testing.T) {
	f := Substr()
	outs := f.ApplyAll("abc", 100)
	want := map[string]bool{"": true, "a": true, "b": true, "c": true, "ab": true, "bc": true, "abc": true}
	if len(outs) != len(want) {
		t.Fatalf("outputs = %v", outs)
	}
	for _, o := range outs {
		if !want[o] {
			t.Fatalf("unexpected substring %q", o)
		}
	}
}

func TestURLDecode(t *testing.T) {
	f := URLDecode()
	cases := map[string]string{
		"abc":     "abc",
		"a+b":     "a b",
		"a%27b":   "a'b",
		"%2F":     "/",
		"%2f":     "/",
		"100%":    "100%",
		"%zz":     "%zz",
		"%2":      "%2",
		"a%27%27": "a''",
	}
	for in, want := range cases {
		if got := applyOne(t, f, in); got != want {
			t.Errorf("urldecode(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestURLEncode(t *testing.T) {
	f := URLEncode()
	cases := map[string]string{
		"abc":  "abc",
		"a b":  "a+b",
		"a'b":  "a%27b",
		"x/y":  "x%2Fy",
		"a.b-": "a.b-",
	}
	for in, want := range cases {
		if got := applyOne(t, f, in); got != want {
			t.Errorf("urlencode(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestHTMLSpecialChars(t *testing.T) {
	compat := HTMLSpecialChars(false)
	if got := applyOne(t, compat, `<a href="x">'q'</a>`); got != `&lt;a href=&quot;x&quot;&gt;'q'&lt;/a&gt;` {
		t.Errorf("ENT_COMPAT = %q", got)
	}
	quotes := HTMLSpecialChars(true)
	if got := applyOne(t, quotes, `'q'`); got != `&#039;q&#039;` {
		t.Errorf("ENT_QUOTES = %q", got)
	}
}

func TestStripTags(t *testing.T) {
	f := StripTags()
	cases := map[string]string{
		"plain":           "plain",
		"<b>bold</b>":     "bold",
		"a<br/>b":         "ab",
		"unterminated <x": "unterminated ",
	}
	for in, want := range cases {
		if got := applyOne(t, f, in); got != want {
			t.Errorf("strip_tags(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestNL2BR(t *testing.T) {
	f := NL2BR()
	if got := applyOne(t, f, "a\nb"); got != "a<br />\nb" {
		t.Errorf("nl2br = %q", got)
	}
}

func TestCharMapFirst(t *testing.T) {
	f := CharMapFirst(func(b byte) []byte {
		if b >= 'A' && b <= 'Z' {
			return []byte{b - 'A' + 'a'}
		}
		return []byte{b}
	})
	for in, want := range map[string]string{"": "", "ABC": "aBC", "xY": "xY"} {
		if got := applyOne(t, f, in); got != want {
			t.Errorf("lcfirst(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSurroundApprox(t *testing.T) {
	// Check through the grammar image (ApplyAll's bounded search does not
	// enumerate both pad sides before its result cap).
	g := grammar.New()
	s := g.NewNT("S")
	g.AddString(s, "ab")
	root, ok := ImageInto(g, s, SurroundApprox([]byte("-")), nil)
	if !ok {
		t.Fatal("image empty")
	}
	for _, want := range []string{"ab", "-ab", "ab-", "--ab--"} {
		if !g.DerivesString(root, want) {
			t.Errorf("surround missing %q", want)
		}
	}
	for _, bad := range []string{"", "a-b", "ba", "-a"} {
		if g.DerivesString(root, bad) {
			t.Errorf("surround wrongly derives %q", bad)
		}
	}
}

func TestReverseApproxRange(t *testing.T) {
	// The over-approximation admits any output for any input.
	f := ReverseApprox()
	n := f.RangeNFA()
	if !n.AcceptsString("anything") || !n.AcceptsString("") {
		t.Fatal("reverse range should be sigma*")
	}
}
