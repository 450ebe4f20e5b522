package sqlciv

import (
	"fmt"
	"math/bits"
	"reflect"
	"testing"

	"sqlciv/internal/analysis"
	"sqlciv/internal/automata"
	"sqlciv/internal/corpus"
	"sqlciv/internal/grammar"
	"sqlciv/internal/policy"
	"sqlciv/internal/xss"
)

// checkDFA is one named check automaton of the policy or XSS cascade.
type checkDFA struct {
	name string
	d    *automata.DFA
}

// byteImage returns the d-states reachable from the state set from by
// reading some string of L(rhs), stepping terminals through d's dense
// per-symbol rows and nonterminals through rels.
func byteImage(d *automata.DFA, rels [][]uint32, rhs []grammar.Sym, from uint32) uint32 {
	for _, s := range rhs {
		var next uint32
		for m := from; m != 0; m &= m - 1 {
			p := bits.TrailingZeros32(m)
			if grammar.IsTerminal(s) {
				next |= 1 << uint(d.Step(p, int(s)))
			} else {
				next |= rels[int(s)-grammar.NumTerminals][p]
			}
		}
		from = next
	}
	return from
}

// byteRels is the per-byte reference for grammar.RelPlan.RelsT:
// rels[nt][p] is the set of states some string of L(nt) drives d to from p,
// computed by a round-robin fixpoint over every production with no byte
// classes, run composition or worklist.
func byteRels(g *grammar.Grammar, d *automata.DFA) [][]uint32 {
	nq := d.NumStates()
	rels := make([][]uint32, g.NumNTs())
	for i := range rels {
		rels[i] = make([]uint32, nq)
	}
	for changed := true; changed; {
		changed = false
		g.ForEachProd(func(lhs grammar.Sym, rhs []grammar.Sym) {
			row := rels[int(lhs)-grammar.NumTerminals]
			for p := 0; p < nq; p++ {
				if to := byteImage(d, rels, rhs, 1<<uint(p)); row[p]|to != row[p] {
					row[p] |= to
					changed = true
				}
			}
		})
	}
	return rels
}

// byteContexts is the per-byte reference for grammar.Contexts: the d-states
// possible immediately before some occurrence of each nonterminal in a
// terminal derivation from root. rels must come from byteRels; over a
// complete d a nonterminal is productive exactly when its start row is
// nonempty.
func byteContexts(g *grammar.Grammar, root grammar.Sym, d *automata.DFA, rels [][]uint32) []uint32 {
	productive := func(s grammar.Sym) bool { return rels[int(s)-grammar.NumTerminals][d.Start()] != 0 }
	ctx := make([]uint32, g.NumNTs())
	if productive(root) {
		ctx[int(root)-grammar.NumTerminals] = 1 << uint(d.Start())
	}
	for changed := true; changed; {
		changed = false
		g.ForEachProd(func(lhs grammar.Sym, rhs []grammar.Sym) {
			states := ctx[int(lhs)-grammar.NumTerminals]
			if states == 0 {
				return
			}
			for _, s := range rhs {
				if !grammar.IsTerminal(s) && !productive(s) {
					return
				}
			}
			for i, s := range rhs {
				if !grammar.IsTerminal(s) {
					si := int(s) - grammar.NumTerminals
					if ctx[si]|states != ctx[si] {
						ctx[si] |= states
						changed = true
					}
				}
				states = byteImage(d, rels, rhs[i:i+1], states)
			}
		})
	}
	return ctx
}

// compareRelsWithBytes checks the byte-class-compressed relation and
// context fixpoints over g from root against the per-byte references, for
// every check DFA small enough for relations (RelsT returns nil for a
// larger one, and the cascade intersects instead).
func compareRelsWithBytes(t *testing.T, where string, g *grammar.Grammar, root grammar.Sym, dfas []checkDFA) {
	t.Helper()
	plan := grammar.NewRelPlan(g, g.MinLens(), nil)
	for _, c := range dfas {
		got := plan.RelsT(c.d, nil, nil)
		if got == nil {
			continue
		}
		want := byteRels(g, c.d)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s %s: class-indexed relations differ from the per-byte fixpoint", where, c.name)
		} else if !reflect.DeepEqual(grammar.Contexts(g, root, c.d, got), byteContexts(g, root, c.d, want)) {
			t.Errorf("%s %s: class-indexed contexts differ from the per-byte fixpoint", where, c.name)
		}
	}
}

// compareIntersectionWithBytes checks the class-seeded Fig. 7 intersection
// of g from root with c: it must be nonempty exactly when the per-byte
// relations say so, and its witness must be accepted byte by byte.
func compareIntersectionWithBytes(t *testing.T, where string, g *grammar.Grammar, root grammar.Sym, c checkDFA) {
	t.Helper()
	nonempty := false
	for m := byteRels(g, c.d)[int(root)-grammar.NumTerminals][c.d.Start()]; m != 0; m &= m - 1 {
		nonempty = nonempty || c.d.IsAccept(bits.TrailingZeros32(m))
	}
	w, ok := grammar.IntersectWitness(g, root, c.d)
	if ok != nonempty {
		t.Errorf("%s %s: intersection nonempty=%v, per-byte relations say %v", where, c.name, ok, nonempty)
	} else if ok && !c.d.AcceptsString(w) {
		t.Errorf("%s %s: intersection witness %q is rejected byte by byte", where, c.name, w)
	}
}

// TestCompressionPreservesFindingsOnCorpus is byte-class compression's
// corpus-scale oracle. The policy cascade decides each hotspot with
// relation and context fixpoints over its compacted slice, run on the
// class-indexed transition slab of each check DFA, and draws check 1's
// witness (the check behind every corpus finding) from a Fig. 7
// intersection of the extracted slice with the odd-quotes DFA, seeded by
// byte class. For every hotspot of every Table 1 subject those answers must
// equal per-byte references that step every terminal through the DFA's
// dense rows: the relations and contexts for every policy check DFA, and
// the odd-quotes intersection from the hotspot root. The class partition is
// a lossless re-indexing, so any divergence is a compression bug.
func TestCompressionPreservesFindingsOnCorpus(t *testing.T) {
	var dfas []checkDFA
	var oddQuotes checkDFA
	for _, c := range policy.CheckAutomata() {
		dfas = append(dfas, checkDFA{c.Name, c.DFA})
		if c.Name == "odd-quotes" {
			oddQuotes = dfas[len(dfas)-1]
		}
	}
	if oddQuotes.d == nil {
		t.Fatal("policy has no odd-quotes check DFA")
	}
	hotspots := 0
	for _, app := range corpus.Apps() {
		resolver := analysis.NewMapResolver(app.Sources)
		for _, entry := range app.Entries {
			ar, err := analysis.Analyze(resolver, entry, analysis.Options{})
			if err != nil {
				t.Fatalf("%s %s: %v", app.Name, entry, err)
			}
			for _, h := range ar.Hotspots {
				hotspots++
				where := fmt.Sprintf("%s %s:%d", app.Name, h.File, h.Line)
				cg, _ := grammar.CompactSlice(ar.G, h.Root, nil)
				compareRelsWithBytes(t, where, cg.G, cg.Top, dfas)
				slice, remap := ar.G.Extract(h.Root)
				compareIntersectionWithBytes(t, where, slice, remap[h.Root], oddQuotes)
			}
		}
	}
	if hotspots == 0 {
		t.Fatal("corpus produced no hotspots")
	}
}

// TestCompressionPreservesXSSFindings is the same oracle for the XSS
// auditor, which decides a page from the relations of its five check DFAs
// and the HTML contexts over the extracted page-output grammar: for every
// corpus page that emits HTML, each of those must match the per-byte
// references. The corpus's page-output grammars are small and carry no
// labels, so the XSS check DFAs also run over every compacted hotspot
// slice, the richest grammars the corpus has.
func TestCompressionPreservesXSSFindings(t *testing.T) {
	var dfas []checkDFA
	for _, c := range xss.CheckAutomata() {
		dfas = append(dfas, checkDFA{c.Name, c.DFA})
	}
	pages := 0
	for _, app := range corpus.Apps() {
		resolver := analysis.NewMapResolver(app.Sources)
		for _, entry := range app.Entries {
			ar, err := analysis.Analyze(resolver, entry, analysis.Options{})
			if err != nil {
				t.Fatalf("%s %s: %v", app.Name, entry, err)
			}
			for _, h := range ar.Hotspots {
				cg, _ := grammar.CompactSlice(ar.G, h.Root, nil)
				compareRelsWithBytes(t, fmt.Sprintf("%s %s:%d", app.Name, h.File, h.Line), cg.G, cg.Top, dfas)
			}
			if ar.PageOutput == 0 {
				continue
			}
			pages++
			slice, remap := ar.G.Extract(ar.PageOutput)
			compareRelsWithBytes(t, app.Name+" "+entry, slice, remap[ar.PageOutput], dfas)
		}
	}
	if pages == 0 {
		t.Fatal("corpus produced no page output")
	}
}
