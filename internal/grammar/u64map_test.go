package grammar

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// prodSetGrammar returns a grammar with n nonterminals to add productions to.
func prodSetGrammar(n int) *Grammar {
	g := New()
	for i := 0; i < n; i++ {
		g.NewNT("")
	}
	return g
}

// randProd draws a small production of one of g's nonterminals: up to three
// symbols, terminals or nonterminals.
func randProd(r *rand.Rand, g *Grammar) (Sym, []Sym) {
	rhs := make([]Sym, r.Intn(4))
	for i := range rhs {
		rhs[i] = Sym(r.Intn(NumTerminals + g.NumNTs()))
	}
	return Sym(NumTerminals + r.Intn(g.NumNTs())), rhs
}

// TestProdSetExactOnHashCollision finds distinct productions with the same
// 32-bit hash, once with one left-hand side and once with two, and requires
// the set to add both of each pair: a hash-only hit would silently drop a
// production from the constructed grammar.
func TestProdSetExactOnHashCollision(t *testing.T) {
	for _, nts := range []int{1, 1 << 12} {
		r := rand.New(rand.NewSource(3))
		g := prodSetGrammar(nts)
		type prod struct {
			lhs Sym
			rhs []Sym
		}
		seen := map[uint32]prod{}
		found := false
		for tries := 0; tries < 1<<21 && !found; tries++ {
			lhs, rhs := randProd(r, g)
			h := prodHash(lhs, rhs)
			prev, ok := seen[h]
			if !ok {
				seen[h] = prod{lhs, rhs}
				continue
			}
			if prev.lhs == lhs && slices.Equal(prev.rhs, rhs) {
				continue
			}
			found = true
			s := NewProdSet(g)
			if !s.Add(prev.lhs, prev.rhs) || !s.Add(lhs, rhs) {
				t.Fatalf("colliding productions %d → %v and %d → %v not both added", prev.lhs, prev.rhs, lhs, rhs)
			}
			if s.Add(prev.lhs, prev.rhs) || s.Add(lhs, rhs) || g.NumProds() != 2 {
				t.Fatalf("re-adding a member reported it absent (%d productions)", g.NumProds())
			}
			s.Release()
		}
		if !found {
			t.Fatalf("no 32-bit hash collision found over %d nonterminals", nts)
		}
	}
}

// TestProdSetMatchesMap drives recycled sets through growth and generation
// resets, and requires every Add to agree with a map of the productions
// added since the set was acquired, and the grammar to hold exactly those.
func TestProdSetMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for round := 0; round < 40; round++ {
		g := prodSetGrammar(1 + r.Intn(64))
		s := NewProdSet(g)
		want := map[string]bool{}
		for i := 0; i < 50+r.Intn(5000); i++ {
			lhs, rhs := randProd(r, g)
			k := fmt.Sprint(lhs, rhs)
			if got := s.Add(lhs, rhs); got == want[k] {
				t.Fatalf("round %d: Add(%d, %v) = %t with the production already present = %t", round, lhs, rhs, got, want[k])
			}
			want[k] = true
		}
		s.Release()
		if g.NumProds() != len(want) {
			t.Fatalf("round %d: grammar has %d productions, %d distinct were added", round, g.NumProds(), len(want))
		}
	}
}

// TestProdSetGenerationWrap: when the generation counter wraps, slots
// stamped by earlier generations must not come back to life.
func TestProdSetGenerationWrap(t *testing.T) {
	g := prodSetGrammar(3)
	a, b, c := Sym(NumTerminals), Sym(NumTerminals+1), Sym(NumTerminals+2)
	s := &ProdSet{slots: make([]prodSlot, 64)}
	s.reset(g)
	s.Add(a, []Sym{'a'})
	s.gen = math.MaxUint32
	s.Add(b, []Sym{'b'})
	s.reset(g)
	for _, p := range []struct {
		lhs Sym
		rhs []Sym
	}{{a, []Sym{'a'}}, {b, []Sym{'b'}}, {c, nil}} {
		if !s.Add(p.lhs, p.rhs) {
			t.Fatalf("after the wrap, %d → %v is reported present", p.lhs, p.rhs)
		}
	}
}

// TestProdSetConcurrentUse runs constructions on several goroutines at once,
// as parallel page analysis does, each with its own grammar and a set from
// the shared pool; under -race it checks that recycled sets are never shared.
func TestProdSetConcurrentUse(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for round := 0; round < 20; round++ {
				g := prodSetGrammar(8)
				s := NewProdSet(g)
				want := map[string]bool{}
				for i := 0; i < 200; i++ {
					lhs, rhs := randProd(r, g)
					want[fmt.Sprint(lhs, rhs)] = true
					s.Add(lhs, rhs)
				}
				s.Release()
				if g.NumProds() != len(want) {
					t.Errorf("grammar has %d productions, %d distinct were added", g.NumProds(), len(want))
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}
