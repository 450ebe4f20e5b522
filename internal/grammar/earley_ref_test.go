package grammar

import (
	"math/rand"
	"sync"
	"testing"
)

// recognizeReference is the structural Earley parser the Recognizer
// replaced, kept as its differential oracle. It walks g through Rhs and
// NumProdsOf, predicts a nonterminal's productions from every item that
// waits on it, and completes an item by scanning every item at its origin.
// It answers whether start ⇒+ input, input a sentential form over g's
// symbols whose nonterminals match only themselves.
func recognizeReference(g *Grammar, start Sym, input []Sym) bool {
	type item struct {
		nt             Sym
		prod, dot, org int32
	}
	nullable := make([]bool, g.NumNTs())
	for changed := true; changed; {
		changed = false
		g.ForEachProd(func(lhs Sym, rhs []Sym) {
			for _, s := range rhs {
				if IsTerminal(s) || !nullable[g.ntIndex(s)] {
					return
				}
			}
			if !nullable[g.ntIndex(lhs)] {
				nullable[g.ntIndex(lhs)], changed = true, true
			}
		})
	}
	n := len(input)
	seen := make([]map[item]bool, n+1)
	order := make([][]item, n+1)
	add := func(k int, it item) {
		if seen[k] == nil {
			seen[k] = map[item]bool{}
		}
		if !seen[k][it] {
			seen[k][it] = true
			order[k] = append(order[k], it)
		}
	}
	for pi := 0; pi < g.NumProdsOf(start); pi++ {
		add(0, item{start, int32(pi), 0, 0})
	}
	for k := 0; k <= n; k++ {
		for idx := 0; idx < len(order[k]); idx++ {
			it := order[k][idx]
			rhs := g.Rhs(it.nt, int(it.prod))
			if int(it.dot) < len(rhs) {
				next := rhs[it.dot]
				if k < n && input[k] == next { // scan a terminal or an input nonterminal
					add(k+1, item{it.nt, it.prod, it.dot + 1, it.org})
				}
				if IsTerminal(next) {
					continue
				}
				for pi := 0; pi < g.NumProdsOf(next); pi++ {
					add(k, item{next, int32(pi), 0, int32(k)})
				}
				if nullable[g.ntIndex(next)] {
					add(k, item{it.nt, it.prod, it.dot + 1, it.org})
				}
				continue
			}
			for _, back := range order[it.org] {
				brhs := g.Rhs(back.nt, int(back.prod))
				if int(back.dot) < len(brhs) && brhs[back.dot] == it.nt {
					add(k, item{back.nt, back.prod, back.dot + 1, back.org})
				}
			}
		}
	}
	for _, it := range order[n] {
		if it.nt == start && it.org == 0 && int(it.dot) == len(g.Rhs(start, int(it.prod))) {
			return true
		}
	}
	return false
}

// FuzzRecognize holds the Recognizer to recognizeReference on
// FuzzIntersect's grammars: on the input the fuzzer supplies, decoded as
// terminals and nonterminals, then on random byte strings and on random
// sentential forms, each from a random start symbol. The Recognizer is
// built both over every nonterminal and over the ones start reaches.
func FuzzRecognize(f *testing.F) {
	// N0 → N1 N1 'a', N1 → N2, N2 → ε: a nullable chain.
	f.Add([]byte{0, 3, 129, 129, 'a', 1, 1, 130, 2, 0}, uint64(1), []byte("a"))
	// N0 → N0 'a' | 'b' (left recursion); N1 → 'a' N1 | 'c' (right
	// recursion), which N0 does not reach.
	f.Add([]byte{0, 2, 128, 'a', 0, 1, 'b', 1, 2, 'a', 129, 1, 1, 'c'}, uint64(2), []byte("baa"))
	f.Add([]byte{0, 2, 128, 'a', 0, 1, 'b', 1, 2, 'a', 129, 1, 1, 'c'}, uint64(3), []byte("aac"))
	// N3 unproductive: N0 → 'x' | N0 N3, N3 → N3.
	f.Add([]byte{0, 1, 'x', 0, 2, 128, 131, 3, 1, 131}, uint64(4), []byte("x"))
	// The input [start]: accepted only if start ⇒+ start (N0 → N1, N1 → N0 | 'q').
	f.Add([]byte{0, 1, 129, 1, 1, 128, 1, 1, 'q'}, uint64(5), []byte{0x80})
	f.Add([]byte{0, 1, 'x'}, uint64(6), []byte{0x80})
	f.Fuzz(func(t *testing.T, data []byte, seed uint64, in []byte) {
		if len(data) > 96 {
			data = data[:96]
		}
		if len(in) > 32 {
			in = in[:32]
		}
		g, root, _ := fuzzGrammar(data)
		all := NewRecognizer(g)
		check := func(start Sym, input []Sym) {
			want := recognizeReference(g, start, input)
			if got := all.Recognize(start, input); got != want {
				t.Fatalf("Recognize(%s, %v) = %t, reference %t\n%s", g.Name(start), input, got, want, g.String())
			}
			if got := NewRecognizer(g, start).Recognize(start, input); got != want {
				t.Fatalf("Recognize(%s, %v) over %s's nonterminals = %t, reference %t\n%s",
					g.Name(start), input, g.Name(start), got, want, g.String())
			}
		}
		form := make([]Sym, len(in))
		for i, b := range in {
			form[i] = Sym(b)
			if b >= 0x80 {
				form[i] = Sym(NumTerminals + int(b)%g.NumNTs())
			}
		}
		check(root, form)
		r := rand.New(rand.NewSource(int64(seed)))
		for range 8 {
			start := Sym(NumTerminals + r.Intn(g.NumNTs()))
			input := make([]Sym, r.Intn(6))
			for i := range input {
				input[i] = Sym("abcqx"[r.Intn(5)])
			}
			check(start, input)
			for i := range input {
				if r.Intn(3) == 0 {
					input[i] = Sym(NumTerminals + r.Intn(g.NumNTs()))
				}
			}
			check(start, input)
		}
	})
}

// TestRecognizerConcurrent: one Recognizer serves parses from several
// goroutines at once, each on a workspace of its own, with the reference's
// answers.
func TestRecognizerConcurrent(t *testing.T) {
	g, s := randomGrammar(rand.New(rand.NewSource(3)))
	rec := NewRecognizer(g)
	words := []string{""}
	for i := 0; i < len(words) && len(words) < 121; i++ {
		for _, c := range "ab'" {
			words = append(words, words[i]+string(c))
		}
	}
	want := make([]bool, len(words))
	for i, w := range words {
		want[i] = recognizeReference(g, s, TermString(w))
	}
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, w := range words {
				if got := rec.RecognizeString(s, w); got != want[i] {
					t.Errorf("RecognizeString(%q) = %t, reference %t", w, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}
