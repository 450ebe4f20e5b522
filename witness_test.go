package sqlciv

import (
	"runtime"
	"strings"
	"testing"

	"sqlciv/internal/analysis"
	"sqlciv/internal/automata"
	"sqlciv/internal/corpus"
	"sqlciv/internal/grammar"
	"sqlciv/internal/policy"
	"sqlciv/internal/xss"
)

// bytesAllocated reports the heap bytes f allocates.
func bytesAllocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestWitnessChainMemoryIsLinear: the intersection of one ~8 kB literal
// containing a quote with the odd-quotes automaton is a chain of a few
// nonterminals per byte, and the witness is the whole literal. Extracting it
// must allocate a small multiple of its length; memoizing every chain
// nonterminal's full expansion costs quadratic memory (over 100 MB here).
func TestWitnessChainMemoryIsLinear(t *testing.T) {
	var odd *automata.DFA
	for _, ca := range policy.CheckAutomata() {
		if ca.Name == "odd-quotes" {
			odd = ca.DFA
		}
	}
	lit := strings.Repeat("abcdefgh", 1000)[:4000] + "'" + strings.Repeat("0123456789", 400)[:3999]
	g := grammar.New()
	x := g.NewNT("X")
	g.AddLabel(x, grammar.Direct)
	g.AddString(x, lit)
	root, ok := grammar.IntersectInto(g, x, odd)
	if !ok {
		t.Fatal("a literal with one quote must meet odd-quotes")
	}
	var w string
	alloc := bytesAllocated(func() { w, ok = g.WitnessString(root) })
	if !ok || w != lit {
		t.Fatalf("witness is not the literal (ok=%t, %d bytes)", ok, len(w))
	}
	if bound := uint64(128 * len(lit)); alloc > bound {
		t.Fatalf("WitnessString allocated %d bytes for a %d-byte witness over %d nonterminals; bound %d",
			alloc, len(w), g.NumNTs(), bound)
	}
}

// TestWitnessAddnewsHasLT is the case that exhausted 4 GB under the
// memoizing witness: the page-output grammar of Tiger's addnews.php
// intersected with the XSS has-lt automaton is a chain of about 150k
// nonterminals whose shortest member is 51,177 bytes long.
func TestWitnessAddnewsHasLT(t *testing.T) {
	var hasLT *automata.DFA
	for _, ca := range xss.CheckAutomata() {
		if ca.Name == "has-lt" {
			hasLT = ca.DFA
		}
	}
	ar, err := analysis.Analyze(analysis.NewMapResolver(corpus.Tiger().Sources), "addnews.php", analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, ok := grammar.IntersectWitness(ar.G, ar.PageOutput, hasLT)
	if !ok {
		t.Fatal("addnews.php output must meet has-lt")
	}
	if len(w) != 51177 || !strings.Contains(w, "<") || !hasLT.AcceptsString(w) {
		t.Fatalf("witness: %d bytes, contains '<' %t, accepted %t; want 51177, true, true",
			len(w), strings.Contains(w, "<"), hasLT.AcceptsString(w))
	}
}
