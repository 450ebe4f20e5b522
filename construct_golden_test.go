package sqlciv

// Regenerate the construction fingerprint after an intended change to the
// Figure 7 intersection or the FST image with
//
//	go test -run TestConstructionGolden -update .

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sqlciv/internal/automata"
	"sqlciv/internal/fst"
	"sqlciv/internal/grammar"
	"sqlciv/internal/policy"
	"sqlciv/internal/xss"
)

// constructGrammarCount is the number of random grammars the construction
// fingerprint covers.
const constructGrammarCount = 48

// constructAlphabet biases the random grammars towards the bytes the check
// automata and transducers distinguish (quotes, backslash, markup, digits),
// so most constructions are nonempty and exercise escaping.
const constructAlphabet = "'\"\\<>&;=- 0123456789abcxyzORDROP"

// randomConstructGrammar builds one seeded grammar for the construction
// fingerprint. Every grammar has one wide nonterminal with 64-512
// alternatives (the shape whose per-item production dedup dominates), and
// the rest mix ε-productions, repeated productions, right-hand sides longer
// than two symbols, recursion and direct/indirect labels.
func randomConstructGrammar(seed int64) (*grammar.Grammar, grammar.Sym) {
	rng := rand.New(rand.NewSource(seed))
	g := grammar.New()
	nts := make([]grammar.Sym, 3+rng.Intn(6))
	for i := range nts {
		nts[i] = g.NewNT(fmt.Sprintf("N%d", i))
		switch rng.Intn(5) {
		case 0:
			g.AddLabel(nts[i], grammar.Direct)
		case 1:
			g.AddLabel(nts[i], grammar.Indirect)
		}
	}
	wide := 1 + rng.Intn(len(nts)-1)
	if rng.Intn(4) == 0 {
		wide = 0
	}
	randRHS := func(maxLen, ntPct int) []grammar.Sym {
		n := rng.Intn(maxLen + 1)
		rhs := make([]grammar.Sym, 0, n)
		for k := 0; k < n; k++ {
			if rng.Intn(100) < ntPct {
				rhs = append(rhs, nts[rng.Intn(len(nts))])
			} else {
				rhs = append(rhs, grammar.T(constructAlphabet[rng.Intn(len(constructAlphabet))]))
			}
		}
		return rhs
	}
	for i, nt := range nts {
		alts, maxLen, ntPct := 1+rng.Intn(5), 4, 30
		if i == wide {
			alts, maxLen, ntPct = 64+rng.Intn(449), 6, 4
		}
		var added [][]grammar.Sym
		for a := 0; a < alts; a++ {
			var rhs []grammar.Sym
			switch r := rng.Intn(20); {
			case r == 0:
				// ε-production (possibly repeated below)
			case r <= 2 && len(added) > 0:
				rhs = added[rng.Intn(len(added))] // duplicate production
			default:
				rhs = randRHS(maxLen, ntPct)
			}
			g.Add(nt, rhs...)
			added = append(added, rhs)
		}
		// A terminal-only alternative keeps most nonterminals productive.
		g.Add(nt, randRHS(3, 0)...)
	}
	g.SetStart(nts[0])
	return g, nts[0]
}

// constructionFingerprint runs the Figure 7 intersection and the FST image
// on every random grammar and records, per call, the nonemptiness flag, the
// result root, the production count and the SHA-256 of the whole rendered
// grammar. Unlike grammar.Fingerprint, the rendering depends on nonterminal
// numbering and production order, so any reordering of the construction
// shows here.
func constructionFingerprint(t *testing.T) string {
	t.Helper()
	type namedDFA struct {
		name string
		d    *automata.DFA
	}
	var dfas []namedDFA
	for _, ca := range policy.CheckAutomata() {
		dfas = append(dfas, namedDFA{"policy:" + ca.Name, ca.DFA})
	}
	for _, ca := range xss.CheckAutomata() {
		dfas = append(dfas, namedDFA{"xss:" + ca.Name, ca.DFA})
	}
	fsts := []struct {
		name string
		t    *fst.FST
	}{
		{"addslashes", fst.AddSlashes()},
		{"stripslashes", fst.StripSlashes()},
		{"htmlspecialchars", fst.HTMLSpecialChars(true)},
		{"replace-quote", fst.ReplaceAllString("'", []byte("''"))},
	}
	var b strings.Builder
	record := func(gi int, op string, g *grammar.Grammar, root grammar.Sym, ok bool) {
		fmt.Fprintf(&b, "g%02d %s ok=%t root=%d prods=%d sha=%x\n",
			gi, op, ok, root, g.NumProds(), sha256.Sum256([]byte(g.String())))
	}
	for gi := 0; gi < constructGrammarCount; gi++ {
		g, root := randomConstructGrammar(int64(gi) + 1)
		fmt.Fprintf(&b, "== g%02d |V|=%d |R|=%d\n", gi, g.NumNTs(), g.NumProds())
		for _, d := range dfas {
			scratch, remap := g.Extract(root)
			nr, ok := grammar.IntersectInto(scratch, remap[root], d.d)
			record(gi, "intersect "+d.name, scratch, nr, ok)
		}
		for _, f := range fsts {
			scratch, remap := g.Extract(root)
			nr, ok := fst.ImageInto(scratch, remap[root], f.t, nil)
			record(gi, "image "+f.name, scratch, nr, ok)
		}
	}
	return b.String()
}

// TestConstructionGolden pins the exact output of the Figure 7 intersection
// and the FST image (nonterminal numbering, production order and count) to
// testdata/construct_golden.txt. TestCorpusGolden cannot see a reordering:
// its canonical fingerprints are invariant under renaming and production
// permutation.
func TestConstructionGolden(t *testing.T) {
	got := constructionFingerprint(t)
	path := filepath.Join("testdata", "construct_golden.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run `go test -run TestConstructionGolden -update .`): %v", path, err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s drifted at line %d:\nwant: %s\ngot:  %s", path, i+1, w, g)
		}
	}
}
