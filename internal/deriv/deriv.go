// Package deriv implements the grammar-derivability check of paper §3.2.2:
// a conservative approximation of context-free language inclusion after
// Thiemann. A generated grammar G1 is derivable from a reference grammar G2
// (Definition 3.2) when a single mapping F from G1's nonterminals to G2
// symbols exists such that every production X → α of G1 satisfies
// F(X) ⇒*_{G2} F*(α).
//
// Derivability implies inclusion (Lemma 3.3), and — because F witnesses a
// reference nonterminal covering each labeled nonterminal inside a
// reference derivation of the whole query — it also witnesses syntactic
// confinement (Definition 2.2) for every labeled nonterminal. The checker
// is budgeted: when flattening or the mapping search exceeds its budget it
// answers "not derivable", which the policy layer treats as a violation —
// the sound direction.
package deriv

import (
	"sqlciv/internal/budget"
	"sqlciv/internal/grammar"
	"sqlciv/internal/obs"
)

// Checker holds a reference grammar's Earley recognizer and search budgets.
// After New returns, a Checker is read-only and safe for concurrent
// Derivable calls.
type Checker struct {
	ref *grammar.Grammar
	rec *grammar.Recognizer
	// MaxFlattenProds caps the flattened production count.
	MaxFlattenProds int
	// MaxFormLen caps the length of a flattened sentential form.
	MaxFormLen int
	// MaxParses caps the number of Earley runs in refinement + search.
	MaxParses int
}

// New returns a Checker against the reference grammar of rec with default
// budgets. rec must hold every nonterminal of its grammar (NewRecognizer
// without roots): refinement parses from each of them.
func New(rec *grammar.Recognizer) *Checker {
	return &Checker{ref: rec.Grammar(), rec: rec, MaxFlattenProds: 4000, MaxFormLen: 600, MaxParses: 50000}
}

// form is a sentential form over the reference alphabet plus variables:
// values >= 0 are reference symbols, values < 0 variable ids as -(id+1) —
// the input grammar.Parser.Parse takes.
type form []grammar.Sym

func varID(v grammar.Sym) (int, bool) {
	if v < 0 {
		return int(-v - 1), true
	}
	return 0, false
}

// session carries the mutable state of one Derivable call — the caller's
// resource budget and one Earley parse session, which counts the parses
// and items — so a single Checker can serve many goroutines at once.
type session struct {
	c *Checker
	b *budget.Budget
	p *grammar.Parser
}

// Derivable reports whether the sub-grammar of g rooted at root is
// derivable from the checker's reference grammar with F(root) drawn from
// targets (reference nonterminals). It returns the witnessing target when
// derivable.
func (c *Checker) Derivable(g *grammar.Grammar, root grammar.Sym, targets []grammar.Sym) (grammar.Sym, bool) {
	return c.DerivableT(g, root, targets, nil, nil)
}

// DerivableT is Derivable metered by b and observed by sp. Every Earley run
// and every item it admits count one step each, so adversarial forms trip
// the step or deadline budget instead of stalling a worker. The Checker's
// own MaxParses/MaxFlatten budgets answer "not derivable" (conservative); b
// panics with *budget.Exceeded for the hotspot boundary to turn into an
// explicit unknown verdict. A nil b is unlimited.
//
// The session's Earley traffic — parses run and items admitted across
// refinement and search — flushes onto sp when the check finishes,
// whichever way it exits ("earley.parses", "earley.items"). The per-item
// cost stays one integer increment next to the existing budget probe. A nil
// sp records nothing.
func (c *Checker) DerivableT(g *grammar.Grammar, root grammar.Sym, targets []grammar.Sym, b *budget.Budget, sp *obs.Span) (grammar.Sym, bool) {
	s := &session{c: c, b: b, p: c.rec.NewParser(b)}
	defer func() {
		s.p.Release()
		sp.Count("earley.parses", int64(s.p.Parses))
		sp.Count("earley.items", s.p.Items)
	}()
	sub, remap := g.Extract(root)
	nroot := remap[root]

	vars, rules, ok := c.flatten(sub, nroot)
	if !ok {
		return 0, false
	}
	nvars := len(vars)
	rootVar := -1
	for i, v := range vars {
		if v == nroot {
			rootVar = i
		}
	}
	if rootVar < 0 {
		// Root was inlined away: it had exactly one production and no
		// self-reference; re-add it as a variable with that single rule.
		// flatten never drops the root, so this is unreachable; guard
		// anyway.
		return 0, false
	}

	// Candidate sets: every ref nonterminal, plus every terminal (a
	// variable that only ever derives one byte can map to that byte).
	refNTs := c.ref.NumNTs()
	candOf := make([][]bool, nvars)
	for i := range candOf {
		cand := make([]bool, grammar.NumTerminals+refNTs)
		for j := range cand {
			cand[j] = true
		}
		candOf[i] = cand
	}
	// Root candidates restricted to targets.
	rootCand := make([]bool, grammar.NumTerminals+refNTs)
	for _, t := range targets {
		rootCand[int(t)] = true
	}
	candOf[rootVar] = rootCand

	// ---- fixpoint refinement -------------------------------------------
	changed := true
	for changed {
		changed = false
		for vi := 0; vi < nvars; vi++ {
			for ci := range candOf[vi] {
				if !candOf[vi][ci] {
					continue
				}
				if !s.feasible(grammar.Sym(ci), rules[vi], candOf) {
					candOf[vi][ci] = false
					changed = true
				}
			}
			if countTrue(candOf[vi]) == 0 {
				return 0, false
			}
		}
		if s.p.Parses > c.MaxParses {
			return 0, false
		}
	}

	// ---- single-mapping search -------------------------------------------
	assign := make([]int32, nvars)
	for i := range assign {
		assign[i] = -1
	}
	if s.search(0, nvars, assign, candOf, rules) {
		return grammar.Sym(assign[rootVar]), true
	}
	return 0, false
}

func countTrue(b []bool) int {
	n := 0
	for _, v := range b {
		if v {
			n++
		}
	}
	return n
}

// feasible reports whether cand ⇒* every production form of one variable,
// with variable occurrences ranging over their current candidate sets.
func (s *session) feasible(cand grammar.Sym, prods []form, candOf [][]bool) bool {
	if grammar.IsTerminal(cand) {
		// A terminal maps only productions that are exactly one symbol
		// which can be that terminal.
		for _, f := range prods {
			if len(f) != 1 {
				return false
			}
			if !symCanBe(f[0], cand, candOf) {
				return false
			}
		}
		return true
	}
	for _, f := range prods {
		if !s.parse(cand, f, candOf) {
			return false
		}
	}
	return true
}

func symCanBe(v, want grammar.Sym, candOf [][]bool) bool {
	if id, isVar := varID(v); isVar {
		return candOf[id][int(want)]
	}
	return v == want
}

// parse reports whether start ⇒* some instantiation of f. A one-symbol
// form that can be start itself is accepted in zero steps (F(X) ⇒* F(X)),
// which the Earley parser, deciding ⇒+, does not do. It is metered as the
// parse it stands for, which stops once start's productions are seeded: a
// step for the parse and one per seeded item.
func (s *session) parse(start grammar.Sym, f form, sets [][]bool) bool {
	if len(f) == 1 && symCanBe(f[0], start, sets) {
		s.p.Parses++
		s.b.Step(1)
		for range s.c.ref.NumProdsOf(start) {
			s.p.Items++
			s.b.Step(1)
		}
		return true
	}
	return s.p.Parse(start, f, sets)
}

// search assigns variables depth-first, verifying all productions whose
// variables are fully assigned as soon as possible.
func (s *session) search(vi, nvars int, assign []int32, candOf [][]bool, rules [][]form) bool {
	if s.p.Parses > s.c.MaxParses {
		return false
	}
	if vi == nvars {
		return true
	}
	for ci := range candOf[vi] {
		if !candOf[vi][ci] {
			continue
		}
		assign[vi] = int32(ci)
		ok := true
		// Verify this variable's own productions under the partial
		// assignment (unassigned vars keep their sets).
		single := singletonSets(assign, candOf)
		for _, f := range rules[vi] {
			if !s.verifyProd(grammar.Sym(ci), f, single) {
				ok = false
				break
			}
		}
		// Re-verify earlier variables' productions that mention vi.
		if ok {
			for pv := 0; pv < vi && ok; pv++ {
				if !mentions(rules[pv], vi) {
					continue
				}
				for _, f := range rules[pv] {
					if !s.verifyProd(grammar.Sym(assign[pv]), f, single) {
						ok = false
						break
					}
				}
			}
		}
		if ok && s.search(vi+1, nvars, assign, candOf, rules) {
			return true
		}
		assign[vi] = -1
		if s.p.Parses > s.c.MaxParses {
			return false
		}
	}
	return false
}

func mentions(prods []form, varIdx int) bool {
	for _, f := range prods {
		for _, s := range f {
			if id, isVar := varID(s); isVar && id == varIdx {
				return true
			}
		}
	}
	return false
}

// singletonSets narrows candidate sets to assigned singletons.
func singletonSets(assign []int32, candOf [][]bool) [][]bool {
	out := make([][]bool, len(candOf))
	for i := range candOf {
		if assign[i] >= 0 {
			s := make([]bool, len(candOf[i]))
			s[assign[i]] = true
			out[i] = s
		} else {
			out[i] = candOf[i]
		}
	}
	return out
}

func (s *session) verifyProd(cand grammar.Sym, f form, sets [][]bool) bool {
	if grammar.IsTerminal(cand) {
		if len(f) != 1 {
			return false
		}
		return symCanBe(f[0], cand, sets)
	}
	return s.parse(cand, f, sets)
}
