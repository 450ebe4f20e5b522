package grammar

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"sqlciv/internal/automata"
	"sqlciv/internal/budget"
)

// fuzzGrammar decodes data into a small CFG over at most four nonterminals.
// Each record is [lhs, rhsLen, sym...]: bytes < 128 become terminals, the
// rest pick a nonterminal, so every input is a valid (possibly empty or
// non-productive) grammar.
func fuzzGrammar(data []byte) (*Grammar, Sym, []byte) {
	g := New()
	nts := make([]Sym, 4)
	for i := range nts {
		nts[i] = g.NewNT(fmt.Sprintf("N%d", i))
	}
	i, prods := 0, 0
	for i+1 < len(data) && prods < 24 {
		lhs := nts[int(data[i])%len(nts)]
		rhsLen := int(data[i+1]) % 4
		i += 2
		rhs := make([]Sym, 0, rhsLen)
		for k := 0; k < rhsLen && i < len(data); k++ {
			v := data[i]
			i++
			if v < 128 {
				rhs = append(rhs, Sym(v))
			} else {
				rhs = append(rhs, nts[int(v)%len(nts)])
			}
		}
		g.Add(lhs, rhs...)
		prods++
	}
	g.SetStart(nts[0])
	return g, nts[0], data[i:]
}

// fuzzDFA decodes the remaining bytes into a complete DFA via a small NFA:
// records of [from, sym, to] over at most four states, accept set from the
// first byte's bits.
func fuzzDFA(data []byte) *automata.DFA {
	n := automata.NewNFA()
	states := make([]int, 4)
	for i := range states {
		states[i] = n.AddState()
	}
	accepts := byte(0x01)
	if len(data) > 0 {
		accepts = data[0]
		data = data[1:]
	}
	for i := range states {
		n.SetAccept(states[i], accepts&(1<<i) != 0)
	}
	for i := 0; i+2 < len(data) && i < 30; i += 3 {
		from := states[int(data[i])%len(states)]
		sym := int(data[i+1]) // always a byte, never the marker
		to := states[int(data[i+2])%len(states)]
		n.AddEdge(from, sym, to)
	}
	return n.Determinize()
}

// FuzzIntersect runs the Figure 7 CFG×FSA intersection on arbitrary small
// grammars and automata under a step budget. It must never panic with
// anything but *budget.Exceeded; no nonterminal the construction creates may
// have two identical productions; and a nonempty result must yield a witness
// accepted by both the automaton and the original grammar.
func FuzzIntersect(f *testing.F) {
	f.Add([]byte{0, 2, 'a', 'b', 1, 1, 'c', 0x0f, 0, 'a', 1, 1, 'b', 0})
	f.Add([]byte{0, 1, 128, 0, 2, 'x', 131, 0, 0, 0xff, 2, 'x', 2})
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 3, 'a', 129, 'a', 1, 1, 'q', 0x02, 1, 'q', 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 96 {
			data = data[:96]
		}
		g, root, rest := fuzzGrammar(data)
		d := fuzzDFA(rest)
		b := budget.New(context.Background(), budget.Limits{
			MaxSteps:    50_000,
			MaxMemBytes: 1 << 20,
		})
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(*budget.Exceeded); !ok {
					panic(r) // real bug; budget trips are the only licit abort
				}
			}
		}()
		n0 := g.NumNTs()
		nr, nonempty := IntersectIntoT(g, root, d, b, nil)
		for i := n0; i < g.NumNTs(); i++ {
			seen := map[string]bool{}
			for pi := 0; pi < g.numProdsAt(i); pi++ {
				key := fmt.Sprint(g.rhsAt(i, pi))
				if seen[key] {
					t.Fatalf("N%d has the production %s twice:\n%s", i, key, g.String())
				}
				seen[key] = true
			}
		}
		if !nonempty {
			return
		}
		w, ok := g.WitnessString(nr)
		if !ok {
			t.Fatal("nonempty intersection has no witness")
		}
		if !d.AcceptsString(w) {
			t.Fatalf("witness %q rejected by the automaton", w)
		}
		if len(w) <= 64 && !g.DerivesString(root, w) {
			t.Fatalf("witness %q not derivable from the original root", w)
		}
	})
}

// FuzzWitness holds the witness read off the worklist's items
// (IntersectWitness) to its materializing reference — extract, intersect
// into the copy, WitnessString — on FuzzIntersect's grammars and automata:
// both must agree on emptiness and return the same string.
func FuzzWitness(f *testing.F) {
	f.Add([]byte{0, 2, 'a', 'b', 1, 1, 'c', 0x0f, 0, 'a', 1, 1, 'b', 0})
	f.Add([]byte{0, 1, 128, 0, 2, 'x', 131, 0, 0, 0xff, 2, 'x', 2})
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 3, 'a', 129, 'a', 1, 1, 'q', 0x02, 1, 'q', 1})
	f.Add([]byte{0, 3, 129, 129, 'b', 1, 2, 'a', 'a', 1, 0, 0x0c, 0, 'a', 1, 1, 'a', 2, 2, 'b', 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 96 {
			data = data[:96]
		}
		g, root, rest := fuzzGrammar(data)
		d := fuzzDFA(rest)
		want, wok := intersectWitnessRef(g, root, d)
		if got, ok := IntersectWitness(g, root, d); ok != wok || got != want {
			t.Fatalf("IntersectWitness = %q,%t; materialized %q,%t\n%s", got, ok, want, wok, g.String())
		}
	})
}

// copySlice copies the sub-grammar of g reachable from root into a fresh
// grammar, creating its nonterminals in the order ord (a permutation of
// them) and giving each its productions in insertion order. edit, when not
// nil, may rewrite each copied right-hand side in place.
func copySlice(g *Grammar, root Sym, ord []Sym, edit func(lhs Sym, pi int, rhs []Sym)) (*Grammar, map[Sym]Sym) {
	out := New()
	m := make(map[Sym]Sym, len(ord))
	for _, nt := range ord {
		m[nt] = out.NewNT(g.RawName(nt))
		out.SetLabel(m[nt], g.LabelOf(nt))
	}
	for _, nt := range ord {
		for pi := 0; pi < g.NumProdsOf(nt); pi++ {
			rhs := remapRHS(nil, g.Rhs(nt, pi), m)
			if edit != nil {
				edit(nt, pi, rhs)
			}
			out.Add(m[nt], rhs...)
		}
	}
	out.SetStart(m[root])
	return out, m
}

// FuzzSliceKey holds SliceKey to its contract on FuzzIntersect's grammars,
// labeled by the byte after them. An Extract copy and a copy whose
// nonterminals were created in reverse order share the key, and with it the
// Fingerprint and the CompactSlice census. Changing one label, one raw name
// or one terminal, or adding a production, changes the key.
func FuzzSliceKey(f *testing.F) {
	f.Add([]byte{0, 2, 'a', 'b', 1, 1, 'c', 0x0f, 0, 'a', 1, 1, 'b', 0})
	f.Add([]byte{0, 1, 128, 0, 2, 'x', 131, 0, 0, 0xff, 2, 'x', 2})
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 3, 'a', 129, 'a', 1, 1, 'q', 0x02, 1, 'q', 1})
	f.Add([]byte{0, 3, 129, 130, 'b', 1, 2, 'a', 131, 2, 1, 'c', 3, 0, 0x39})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 96 {
			data = data[:96]
		}
		g, root, rest := fuzzGrammar(data)
		if len(rest) > 0 {
			for i := 0; i < g.NumNTs(); i++ {
				g.SetLabel(Sym(NumTerminals+i), Label(rest[0]>>(2*i))&(Direct|Indirect))
			}
		}
		key := g.SliceKey(root, nil)
		fp := g.Fingerprint(root)
		_, stats := CompactSlice(g, root, nil)

		same := func(what string, h *Grammar, hroot Sym) {
			t.Helper()
			if h.SliceKey(hroot, nil) != key {
				t.Fatalf("%s changed the slice key:\n%s\n%s", what, g, h)
			}
			if h.Fingerprint(hroot) != fp {
				t.Fatalf("%s kept the slice key but changed the fingerprint:\n%s\n%s", what, g, h)
			}
			if _, st := CompactSlice(h, hroot, nil); st != stats {
				t.Fatalf("%s kept the slice key but changed the compaction census: %+v, want %+v", what, st, stats)
			}
		}
		ex, remap := g.Extract(root)
		same("Extract", ex, remap[root])
		ord := slices.Clone(g.CanonicalOrder(root))
		slices.Reverse(ord)
		rev, m := copySlice(g, root, ord, nil)
		same("creating the nonterminals in reverse order", rev, m[root])

		differs := func(what string, h *Grammar, hroot Sym) {
			t.Helper()
			if h.SliceKey(hroot, nil) == key {
				t.Fatalf("%s kept the slice key:\n%s\n%s", what, g, h)
			}
		}
		x := ord[0]
		if len(data) > 0 {
			x = ord[int(data[len(data)-1])%len(ord)]
		}
		h, m := copySlice(g, root, ord, nil)
		h.SetLabel(m[x], h.LabelOf(m[x])^Direct)
		differs("a label change", h, m[root])
		h, m = copySlice(g, root, ord, nil)
		h.names[h.ntIndex(m[x])] += "'"
		differs("a raw-name change", h, m[root])
		h, m = copySlice(g, root, ord, nil)
		h.Add(m[x])
		differs("an added production", h, m[root])
		for _, nt := range ord {
			for pi := 0; pi < g.NumProdsOf(nt); pi++ {
				k := slices.IndexFunc(g.Rhs(nt, pi), IsTerminal)
				if k < 0 {
					continue
				}
				h, m = copySlice(g, root, ord, func(lhs Sym, p int, rhs []Sym) {
					if lhs == nt && p == pi {
						rhs[k] = (rhs[k] + 1) % 256
					}
				})
				differs("a terminal change", h, m[root])
				return
			}
		}
	})
}
