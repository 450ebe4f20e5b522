package fst

import (
	"context"
	"fmt"
	"testing"

	"sqlciv/internal/budget"
	"sqlciv/internal/grammar"
)

// fuzzGrammar decodes data into a small CFG over at most four nonterminals.
// Each record is [lhs, rhsLen, sym...]: bytes < 128 become terminals, the
// rest pick a nonterminal, so every input is a valid (possibly empty or
// non-productive) grammar.
func fuzzGrammar(data []byte) (*grammar.Grammar, grammar.Sym) {
	g := grammar.New()
	nts := make([]grammar.Sym, 4)
	for i := range nts {
		nts[i] = g.NewNT(fmt.Sprintf("N%d", i))
	}
	for i, prods := 0, 0; i+1 < len(data) && prods < 24; prods++ {
		lhs := nts[int(data[i])%len(nts)]
		rhsLen := int(data[i+1]) % 5
		i += 2
		rhs := make([]grammar.Sym, 0, rhsLen)
		for k := 0; k < rhsLen && i < len(data); k++ {
			if v := data[i]; v < 128 {
				rhs = append(rhs, grammar.T(v))
			} else {
				rhs = append(rhs, nts[int(v)%len(nts)])
			}
			i++
		}
		g.Add(lhs, rhs...)
	}
	g.SetStart(nts[0])
	return g, nts[0]
}

// FuzzImage runs the FST image on arbitrary small grammars under one of four
// string-function transducers, chosen by the first input byte, within a step
// and memory budget. It must never panic with anything but
// *budget.Exceeded; a nonempty image's witness must lie in the transducer's
// range; and the AddSlashes image of a short grammar witness must be
// derivable from the image root.
func FuzzImage(f *testing.F) {
	f.Add([]byte{0, 0, 2, 'a', '\'', 0, 1, 129})
	f.Add([]byte{1, 0, 3, '\\', 'x', 129, 1, 0})
	f.Add([]byte{2, 0, 2, '<', 130, 2, 1, '&', 1, 0})
	f.Add([]byte{3, 0, 4, '\'', 128, '\'', 'b', 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 96 {
			data = data[:96]
		}
		var tr *FST
		switch data[0] % 4 {
		case 0:
			tr = AddSlashes()
		case 1:
			tr = StripSlashes()
		case 2:
			tr = HTMLSpecialChars(true)
		default:
			tr = ReplaceAllString("'", []byte("''"))
		}
		g, root := fuzzGrammar(data[1:])
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
		w, inLang := g.WitnessString(root)
		nr, nonempty := ImageInto(g, root, tr, b)
		if data[0]%4 == 0 && inLang && len(w) <= 64 {
			out, ok := tr.Apply(w)
			if !ok || !nonempty || !g.DerivesString(nr, out) {
				t.Fatalf("addslashes(%q) = %q (ok=%t) not derivable from the image root", w, out, ok)
			}
		}
		if !nonempty {
			return
		}
		iw, ok := g.WitnessString(nr)
		if !ok {
			t.Fatal("nonempty image has no witness")
		}
		if !tr.RangeNFA().AcceptsString(iw) {
			t.Fatalf("image witness %q outside the transducer's range", iw)
		}
	})
}
