package automata_test

import (
	"fmt"
	"math/rand"
	"testing"

	"sqlciv/internal/analysis"
	"sqlciv/internal/automata"
	"sqlciv/internal/core"
	"sqlciv/internal/corpus"
	"sqlciv/internal/enforce"
	"sqlciv/internal/grammar"
)

// randGrammar builds a small random grammar over a few terminals with
// ε-productions and (mutual) recursion.
func randGrammar(r *rand.Rand) (*grammar.Grammar, grammar.Sym) {
	g := grammar.New()
	nts := make([]grammar.Sym, 1+r.Intn(5))
	for i := range nts {
		nts[i] = g.NewNT(fmt.Sprintf("N%d", i))
	}
	terms := []byte("ab'(")
	for _, nt := range nts {
		for p := 1 + r.Intn(3); p > 0; p-- {
			var rhs []grammar.Sym
			for l := r.Intn(4); l > 0; l-- {
				if r.Intn(2) == 0 {
					rhs = append(rhs, nts[r.Intn(len(nts))])
				} else {
					rhs = append(rhs, grammar.T(terms[r.Intn(len(terms))]))
				}
			}
			g.Add(nt, rhs...)
		}
	}
	g.SetStart(nts[0])
	return g, nts[0]
}

// TestImportantSubsetsOnFlattenedGrammars runs the important-state
// contract and the one-pass partition on the ε-heavy NFAs the pack
// compiler determinizes: ApproximateNFA flattenings of random grammars.
func TestImportantSubsetsOnFlattenedGrammars(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pool := []int{'a', 'b', '\'', '(', 'c'}
	for i := 0; i < 500; i++ {
		g, root := randGrammar(r)
		n, ok := enforce.ApproximateNFA(g, root, 0)
		if !ok {
			t.Fatalf("iter %d: ApproximateNFA failed uncapped", i)
		}
		if got, want := automata.ClassesOfNFA(n), automata.ClassesOfNFARefine(n); got != want {
			t.Fatalf("iter %d: one-pass partition differs from refinement", i)
		}
		words := make([][]int, 30)
		for j := range words {
			w := make([]int, r.Intn(7))
			for k := range w {
				w[k] = pool[r.Intn(len(pool))]
			}
			words[j] = w
		}
		for _, q := range g.Enumerate(root, 8, 10) {
			w := make([]int, len(q))
			for k := range q {
				w[k] = int(q[k])
			}
			words = append(words, w)
		}
		automata.CheckImportantSubsets(t, n, words)
	}
}

// TestClassesOfNFAMatchesRefinementOnCorpus: on every NFA the corpus packs
// determinize (one per hotspot site, the union over the pages reaching
// it), the one-pass partition is the refining reference's pointer.
func TestClassesOfNFAMatchesRefinementOnCorpus(t *testing.T) {
	checked := 0
	for _, app := range corpus.Apps() {
		res, err := core.AnalyzeApp(analysis.NewMapResolver(app.Sources), app.Entries, core.Options{})
		if err != nil {
			t.Fatalf("AnalyzeApp(%s): %v", app.Name, err)
		}
		sites := map[string]*automata.NFA{}
		var order []string
		for pi := range res.Pages {
			pr := &res.Pages[pi]
			if pr.Degraded != nil || pr.Analysis == nil || pr.Analysis.G == nil {
				continue
			}
			for _, hr := range pr.Hotspots {
				n, ok := enforce.ApproximateNFA(pr.Analysis.G, hr.Root, enforce.DefaultMaxNFAStates)
				if !ok {
					continue
				}
				key := fmt.Sprintf("%s:%d", hr.File, hr.Line)
				if u := sites[key]; u != nil {
					n = automata.Union(u, n)
				} else {
					order = append(order, key)
				}
				sites[key] = n
			}
		}
		for _, key := range order {
			n := sites[key]
			if got, want := automata.ClassesOfNFA(n), automata.ClassesOfNFARefine(n); got != want {
				t.Fatalf("%s %s: one-pass partition (%d classes) differs from refinement (%d classes)",
					app.Name, key, got.NumClasses(), want.NumClasses())
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no corpus hotspot NFA checked")
	}
}
