package grammar

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"sqlciv/internal/automata"
)

// randEdge draws a hyperedge over a handful of items.
func randEdge(r *rand.Rand, items int32) Edge {
	return Edge{Item: r.Int31n(items), A: r.Int31n(items) - 1, C: r.Int31n(items) - 1, Kind: EdgeKind(r.Intn(3))}
}

// TestEdgeSetExactOnHashCollision finds distinct hyperedges that start the
// same probe sequence in a fresh table and carry the same fingerprint, and
// requires the set to add both: taking a collision for a member would drop
// a production, or a witness candidate, and with it part of the language.
func TestEdgeSetExactOnHashCollision(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var fresh edgeSet
	fresh.reset()
	mask := uint64(len(fresh.slots) - 1)
	seen := map[uint64]Edge{}
	for tries := 0; tries < 1<<21; tries++ {
		e := Edge{Item: r.Int31(), A: r.Int31(), C: r.Int31(), Kind: EdgeKind(r.Intn(3))}
		h := e.hash()
		key := h>>48<<32 | h&mask
		prev, ok := seen[key]
		if !ok {
			seen[key] = e
			continue
		}
		if prev == e {
			continue
		}
		var s edgeSet
		s.reset()
		var edges []Edge
		if !s.add(&edges, prev) || !s.add(&edges, e) {
			t.Fatalf("colliding hyperedges %+v and %+v not both added", prev, e)
		}
		if s.add(&edges, prev) || s.add(&edges, e) || len(edges) != 2 {
			t.Fatalf("re-adding a member reported it absent (%d hyperedges)", len(edges))
		}
		return
	}
	t.Fatal("no probe and fingerprint collision found")
}

// TestEdgeSetMatchesMap drives one recycled set through growth and
// generation resets, and requires every add to agree with a map of the
// hyperedges added since the last reset, and the edge list to hold exactly
// those, in order.
func TestEdgeSetMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var s edgeSet
	var edges, want []Edge
	for round := 0; round < 40; round++ {
		s.reset()
		edges, want = edges[:0], want[:0]
		items := 1 + r.Int31n(64)
		present := map[Edge]bool{}
		for i := 0; i < 50+r.Intn(5000); i++ {
			e := randEdge(r, items)
			if got := s.add(&edges, e); got == present[e] {
				t.Fatalf("round %d: add(%+v) = %t with the hyperedge already present = %t", round, e, got, present[e])
			}
			if !present[e] {
				want = append(want, e)
			}
			present[e] = true
		}
		if !slices.Equal(edges, want) {
			t.Fatalf("round %d: edge list differs from the distinct hyperedges in insertion order", round)
		}
	}
}

// TestReachGenerationWrap: when the edge set's generation counter wraps,
// slots stamped by earlier generations must not come back to life.
func TestReachGenerationWrap(t *testing.T) {
	var s edgeSet
	var edges []Edge
	s.reset()
	s.add(&edges, Edge{Item: 1})
	s.gen = 1<<edgeGenBits - 1
	s.add(&edges, Edge{Item: 2})
	s.reset()
	edges = edges[:0]
	for _, e := range []Edge{{Item: 1}, {Item: 2}, {Item: 3}} {
		if !s.add(&edges, e) {
			t.Fatalf("after the wrap, %+v is reported present", e)
		}
	}
}

// TestReachConcurrentUse runs constructions on several goroutines at once,
// as parallel page analysis does, each with its own grammar and a worklist
// from the shared pool; every result must match the same construction run
// alone, and under -race recycled worklists must never be shared.
func TestReachConcurrentUse(t *testing.T) {
	abEven := func() *automata.DFA {
		n := automata.NewNFA()
		s0, s1 := n.AddState(), n.AddState()
		n.SetAccept(s0, true)
		for _, c := range []byte("ab'") {
			n.AddEdge(s0, int(c), s1)
			n.AddEdge(s1, int(c), s0)
		}
		return n.Determinize()
	}()
	type result struct {
		witness string
		grammar string
	}
	run := func(seed int64) result {
		g, root := randomGrammar(rand.New(rand.NewSource(seed)))
		w, _ := IntersectWitness(g, root, abEven)
		IntersectInto(g, root, abEven)
		return result{w, g.String()}
	}
	const seeds = 40
	want := make([]result, seeds)
	for i := range want {
		want[i] = run(int64(i))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < seeds; i += 2 {
				if got := run(int64(i)); got != want[i] {
					t.Errorf("seed %d: concurrent construction differs from the lone one", i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
