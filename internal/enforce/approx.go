// Package enforce compiles the analyzer's per-hotspot query languages into
// a flat, versioned, mmap-able policy pack and answers runtime membership
// queries ("is this SQL string inside the statically-derived language?") in
// O(len(query)) with zero allocations per check.
//
// The pipeline is: per hotspot, over-approximate the context-free query
// language by a regular one (collapse the call structure of the grammar
// into an NFA — a sound superset), determinize under a state cap, minimize,
// and serialize the byte-class-compressed automaton into the pack. Because
// the approximation only ever adds strings, every query the application can
// legitimately emit stays inside the pack's language: the false-block rate
// on statically-derivable traffic is zero by construction. Hotspots whose
// automaton cannot be built within the caps are recorded as unavailable and
// fail closed at enforcement time.
package enforce

import (
	"sqlciv/internal/automata"
	"sqlciv/internal/grammar"
)

// ApproxCaps bounds the grammar→automaton approximation. Zero fields take
// the package defaults.
type ApproxCaps struct {
	// MaxNFAStates caps the flattened grammar NFA (roughly two states per
	// nonterminal plus one per RHS symbol occurrence).
	MaxNFAStates int
	// MaxDFAStates caps the subset construction. It counts subsets of
	// important NFA states (see automata.NFA.DeterminizeCapped), which are
	// never more than the full subsets an earlier construction counted, so
	// no hotspot that compiled under the full count fails this cap.
	MaxDFAStates int
}

// Defaults for ApproxCaps: generous enough for every Table 1 subject
// (whose hotspot automata land in the tens of states) while keeping a
// pathological grammar from stalling pack compilation. The DFA cap counts
// important-state subsets, as MaxDFAStates describes.
const (
	DefaultMaxNFAStates = 50000
	DefaultMaxDFAStates = 20000
)

func (c ApproxCaps) withDefaults() ApproxCaps {
	if c.MaxNFAStates <= 0 {
		c.MaxNFAStates = DefaultMaxNFAStates
	}
	if c.MaxDFAStates <= 0 {
		c.MaxDFAStates = DefaultMaxDFAStates
	}
	return c
}

// GrammarSlice names one hotspot's query language: the nonterminal Root
// inside grammar G derives every query string the hotspot can send.
type GrammarSlice struct {
	G    *grammar.Grammar
	Root grammar.Sym
}

// ApproximateNFA collapses the call structure of g below root into an NFA
// whose language is a superset of L(root): each reachable nonterminal gets
// an entry and an exit state, each production becomes a chain of terminal
// edges between them, and a nonterminal occurrence becomes an ε-edge into
// the callee's entry plus an ε-edge from the callee's exit back. Dropping
// the implicit call stack is what makes the result regular — and sound:
// every derivation of root maps to an accepting path, so L(NFA) ⊇ L(root).
// Returns (nil, false) if the flattening exceeds maxStates (0 = unlimited).
func ApproximateNFA(g *grammar.Grammar, root grammar.Sym, maxStates int) (*automata.NFA, bool) {
	reach := g.Reachable(root)
	n := automata.NewNFA()
	// entry/exit per reachable nonterminal, keyed by nonterminal index.
	entry := make(map[int]int)
	exit := make(map[int]int)
	over := func() bool { return maxStates > 0 && n.NumStates() > maxStates }
	for i, ok := range reach {
		if !ok {
			continue
		}
		entry[i] = n.AddState()
		exit[i] = n.AddState()
		if over() {
			return nil, false
		}
	}
	for i, ok := range reach {
		if !ok {
			continue
		}
		nt := grammar.Sym(grammar.NumTerminals + i)
		for pi := 0; pi < g.NumProdsOf(nt); pi++ {
			prev := entry[i]
			for _, s := range g.Rhs(nt, pi) {
				next := n.AddState()
				if over() {
					return nil, false
				}
				if grammar.IsTerminal(s) {
					n.AddEdge(prev, int(s), next)
				} else {
					j := int(s) - grammar.NumTerminals
					n.AddEps(prev, entry[j])
					n.AddEps(exit[j], next)
				}
				prev = next
			}
			n.AddEps(prev, exit[i])
		}
	}
	ri := int(root) - grammar.NumTerminals
	n.SetStart(entry[ri])
	n.SetAccept(exit[ri], true)
	return n, true
}

// BuildAutomaton compiles the union of the slices' languages into one
// minimized DFA that over-approximates every slice: determinize the union
// of the flattened NFAs under caps, identifying subsets by their important
// states only (flattened grammars are mostly ε-only states), then minimize.
// Returns (nil, false) if any cap is exceeded or the class partition cannot
// be represented in the pack's one-byte class table — callers record such
// hotspots as unavailable (fail closed).
func BuildAutomaton(slices []GrammarSlice, caps ApproxCaps) (*automata.DFA, bool) {
	caps = caps.withDefaults()
	var u *automata.NFA
	for _, sl := range slices {
		if sl.G == nil {
			return nil, false
		}
		nfa, ok := ApproximateNFA(sl.G, sl.Root, caps.MaxNFAStates)
		if !ok {
			return nil, false
		}
		if u == nil {
			u = nfa
		} else {
			u = automata.Union(u, nfa)
		}
		if u.NumStates() > caps.MaxNFAStates {
			return nil, false
		}
	}
	if u == nil {
		return nil, false
	}
	c, ok := u.DeterminizeCapped(caps.MaxDFAStates)
	if !ok {
		return nil, false
	}
	c = c.Minimize()
	// The pack's class table maps each byte to a one-byte class id.
	if c.NumClasses() > 256 {
		return nil, false
	}
	return c, true
}
