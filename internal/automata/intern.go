package automata

import "sync"

// dfaInterner deduplicates DFAs by their canonical fingerprint. Identical
// automata built independently — the same guard regex compiled on
// different pages, the same substring filter in different analyses —
// collapse to one shared *DFA and one transition slab.
var dfaInterner sync.Map // string -> *DFA

// Intern returns the canonical shared DFA structurally equal to d: d itself
// or an earlier automaton with identical states, transitions, acceptance,
// and start. Safe for concurrent use.
func Intern(d *DFA) *DFA {
	key := d.fingerprint()
	if v, ok := dfaInterner.Load(key); ok {
		return v.(*DFA)
	}
	v, _ := dfaInterner.LoadOrStore(key, d)
	return v.(*DFA)
}

// fingerprint returns the canonical byte encoding of d as a string.
func (d *DFA) fingerprint() string {
	return string(d.AppendKey(make([]byte, 0, 2*AlphabetSize+4*len(d.trans)+len(d.accept)+4)))
}

// AppendKey appends the canonical byte encoding of d to b. Every DFA
// carries the coarsest partition of its transition function, so two DFAs
// are structurally equal iff their encodings are equal: the encoding is a
// content key, unlike the pointer, whose address the collector may reuse.
func (d *DFA) AppendKey(b []byte) []byte {
	for _, cl := range d.bc.class {
		b = append(b, byte(cl), byte(cl>>8))
	}
	for _, t := range d.trans {
		b = append(b, byte(t), byte(t>>8), byte(t>>16), byte(t>>24))
	}
	for _, a := range d.accept {
		if a {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return append(b, byte(d.start), byte(d.start>>8), byte(d.start>>16), byte(d.start>>24))
}
