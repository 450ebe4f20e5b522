package fst

import (
	"math/rand"
	"strings"
	"testing"

	"sqlciv/internal/grammar"
)

// randomGrammar builds a small random grammar (nonempty by construction).
func randomGrammar(r *rand.Rand) (*grammar.Grammar, grammar.Sym) {
	g := grammar.New()
	n := 2 + r.Intn(2)
	nts := make([]grammar.Sym, n)
	for i := range nts {
		nts[i] = g.NewNT("")
	}
	alpha := []byte("ab'\\")
	for i, nt := range nts {
		var base []grammar.Sym
		for j := 0; j < r.Intn(3); j++ {
			base = append(base, grammar.T(alpha[r.Intn(len(alpha))]))
		}
		g.Add(nt, base...)
		var rhs []grammar.Sym
		for j := 0; j < 1+r.Intn(3); j++ {
			if r.Intn(3) == 0 {
				rhs = append(rhs, nts[r.Intn(n)])
			} else {
				rhs = append(rhs, grammar.T(alpha[r.Intn(len(alpha))]))
			}
		}
		g.Add(nt, rhs...)
		_ = i
	}
	return g, nts[0]
}

// phpAddslashes mirrors the transducer's intended function.
func phpAddslashes(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\'', '"', '\\':
			b.WriteByte('\\')
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// TestImageMatchesPointwiseApplication: for the deterministic addslashes
// transducer, the image of a grammar contains exactly the pointwise
// transformation of its (enumerated) language.
func TestImageMatchesPointwiseApplication(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 40; trial++ {
		g, s := randomGrammar(r)
		words := g.Enumerate(s, 4, 200)
		root, ok := ImageInto(g, s, AddSlashes(), nil)
		if !ok {
			t.Fatalf("image of nonempty language empty:\n%s", g.String())
		}
		rec := grammar.NewRecognizer(g)
		seen := map[string]bool{}
		for _, w := range words {
			out := phpAddslashes(w)
			seen[out] = true
			if !rec.RecognizeString(root, out) {
				t.Fatalf("image missing %q (from %q)", out, w)
			}
		}
		// Converse on the enumerated image (only when enumeration was
		// complete for this length bound).
		if len(words) < 200 {
			imgWords := g.Enumerate(root, 8, 400)
			for _, out := range imgWords {
				// Every image string must be the transform of some input of
				// length ≤ 8; inputs are no longer than outputs here.
				okOne := false
				for _, w := range g.Enumerate(s, 8, 400) {
					if phpAddslashes(w) == out {
						okOne = true
						break
					}
				}
				if !okOne {
					t.Fatalf("spurious image string %q", out)
				}
			}
		}
	}
}

// TestReplaceImageMatchesStrings: the KMP replace-all transducer's image
// equals strings.Replace applied pointwise.
func TestReplaceImageMatchesStrings(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	f := ReplaceAllString("ab", []byte("Z"))
	for trial := 0; trial < 40; trial++ {
		g, s := randomGrammar(r)
		words := g.Enumerate(s, 5, 200)
		root, ok := ImageInto(g, s, f, nil)
		if !ok {
			t.Fatal("image empty")
		}
		rec := grammar.NewRecognizer(g)
		for _, w := range words {
			out := strings.Replace(w, "ab", "Z", -1)
			if !rec.RecognizeString(root, out) {
				t.Fatalf("image missing %q (from %q)", out, w)
			}
			// Determinism: the untransformed string must NOT be in the
			// image unless it equals its own transform or is the transform
			// of another member.
		}
	}
}

// TestRangeContainsImage: the range automaton over-approximates every
// image.
func TestRangeContainsImage(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	transducers := []*FST{AddSlashes(), StripSlashes(), ReplaceAllString("'a", []byte("x")), TrimApprox()}
	for trial := 0; trial < 30; trial++ {
		g, s := randomGrammar(r)
		f := transducers[trial%len(transducers)]
		root, ok := ImageInto(g, s, f, nil)
		if !ok {
			continue
		}
		rangeDFA := f.RangeNFA().Determinize()
		for _, out := range g.Enumerate(root, 5, 100) {
			if !rangeDFA.AcceptsString(out) {
				t.Fatalf("image string %q outside the transducer range", out)
			}
		}
	}
}
