package rx

import (
	"math/rand"
	"regexp"
	"testing"
)

// Differential testing against the standard library's regexp engine: for
// patterns in the shared dialect (no backreferences, no lookaround), our
// match-language DFA must agree with regexp.MatchString on every input.

var diffPatterns = []string{
	`abc`,
	`a*`,
	`(ab|cd)+e?`,
	`[0-9]+`,
	`^[0-9]+$`,
	`^-?[0-9]+(\.[0-9]+)?$`,
	`a.c`,
	`[^a-z]+`,
	`x{2,4}y`,
	`(a|b)*abb`,
	`^abc`,
	`abc$`,
	`\d+\s\w+`,
	`[a-f0-9]{2}`,
	`a+?b`,
}

func randInput(r *rand.Rand) string {
	alpha := "ab cdxy019.-'z"
	n := r.Intn(10)
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = alpha[r.Intn(len(alpha))]
	}
	return string(buf)
}

func TestDifferentialAgainstStdlib(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	for _, pat := range diffPatterns {
		std, err := regexp.Compile(pat)
		if err != nil {
			t.Fatalf("stdlib rejected %q: %v", pat, err)
		}
		ours, err := Parse(pat, false)
		if err != nil {
			t.Fatalf("rx rejected %q: %v", pat, err)
		}
		dfa := matchDFA(t, ours)
		for trial := 0; trial < 300; trial++ {
			in := randInput(r)
			want := std.MatchString(in)
			got := dfa.AcceptsString(in)
			if got != want {
				t.Fatalf("pattern %q input %q: rx=%v stdlib=%v", pat, in, got, want)
			}
		}
	}
}

func TestDifferentialCaseInsensitive(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pats := []string{`abc`, `[a-f]+`, `hello|world`}
	for _, pat := range pats {
		std := regexp.MustCompile(`(?i)` + pat)
		ours, err := Parse(pat, true)
		if err != nil {
			t.Fatal(err)
		}
		dfa := matchDFA(t, ours)
		for trial := 0; trial < 200; trial++ {
			in := randInput(r)
			if dfa.AcceptsString(in) != std.MatchString(in) {
				t.Fatalf("ci pattern %q input %q disagreement", pat, in)
			}
		}
	}
}

// TestDifferentialExactLanguage compares the anchored language (NFA of the
// body) with stdlib full-match semantics.
func TestDifferentialExactLanguage(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for _, pat := range []string{`a*b`, `(x|y)+`, `[0-9]{1,3}`, `q?`} {
		std := regexp.MustCompile(`^(?:` + pat + `)$`)
		ours, err := Parse(pat, false)
		if err != nil {
			t.Fatal(err)
		}
		nfa := ours.NFA()
		for trial := 0; trial < 200; trial++ {
			in := randInput(r)
			if nfa.AcceptsString(in) != std.MatchString(in) {
				t.Fatalf("pattern %q input %q disagreement", pat, in)
			}
		}
	}
}
