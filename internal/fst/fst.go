// Package fst implements finite state transducers — the paper's model of
// PHP string operations (§3.1.2, Figure 6) — and the image of a context-free
// grammar under a transducer, with taint-label propagation.
//
// A transducer here may have input-epsilon transitions (consuming nothing
// while emitting output) and per-state final outputs (emitted once when the
// input ends). Final outputs make deterministic replace-all transducers
// expressible: a partially matched pattern prefix still pending at the end
// of the input is flushed as a final output.
package fst

import (
	"encoding/binary"
	"sort"

	"sqlciv/internal/automata"
)

// EpsIn marks an input-epsilon transition.
const EpsIn = -1

// Edge is one transducer transition: consume In (a byte value, or EpsIn) and
// emit Out.
type Edge struct {
	In  int
	Out []byte
	To  int
}

// FST is a finite state transducer over bytes.
type FST struct {
	edges    [][]Edge
	accept   []bool
	finalOut [][]byte
	start    int
}

// New returns an FST with a single non-accepting start state.
func New() *FST {
	t := &FST{}
	t.start = t.AddState()
	return t
}

// AddState adds a fresh state and returns its index.
func (t *FST) AddState() int {
	t.edges = append(t.edges, nil)
	t.accept = append(t.accept, false)
	t.finalOut = append(t.finalOut, nil)
	return len(t.edges) - 1
}

// NumStates reports the number of states.
func (t *FST) NumStates() int { return len(t.edges) }

// AppendKey appends an encoding of t's content to b: its states, start
// state, acceptance and final outputs, and every state's edges in order.
// Transducers built separately from the same arguments encode equally, so
// the encoding keys what ImageInto computes where pointer identity, with a
// fresh *FST per call, would find nothing.
func (t *FST) AppendKey(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(t.edges)))
	b = binary.AppendUvarint(b, uint64(t.start))
	for s, es := range t.edges {
		if t.accept[s] {
			b = append(b, 1)
			b = binary.AppendUvarint(b, uint64(len(t.finalOut[s])))
			b = append(b, t.finalOut[s]...)
		} else {
			b = append(b, 0)
		}
		b = binary.AppendUvarint(b, uint64(len(es)))
		for _, e := range es {
			b = binary.AppendUvarint(b, uint64(e.In+1)) // EpsIn encodes as 0
			b = binary.AppendUvarint(b, uint64(len(e.Out)))
			b = append(b, e.Out...)
			b = binary.AppendUvarint(b, uint64(e.To))
		}
	}
	return b
}

// Start returns the start state.
func (t *FST) Start() int { return t.start }

// SetAccept marks s accepting, emitting out when the input ends there.
func (t *FST) SetAccept(s int, out []byte) {
	t.accept[s] = true
	t.finalOut[s] = out
}

// IsAccept reports whether s accepts.
func (t *FST) IsAccept(s int) bool { return t.accept[s] }

// AddEdge adds a transition.
func (t *FST) AddEdge(from, in int, out []byte, to int) {
	if in != EpsIn && (in < 0 || in > 255) {
		panic("fst: input symbol out of range")
	}
	t.edges[from] = append(t.edges[from], Edge{In: in, Out: out, To: to})
}

// ApplyAll returns up to limit distinct output strings the transducer can
// produce for input, in sorted order. It explores the nondeterministic
// transition relation breadth-first; input-epsilon cycles are cut off by the
// limit and by a step budget, so ApplyAll is for tests and small inputs —
// analysis-side reasoning always goes through ImageInto or RangeNFA.
func (t *FST) ApplyAll(input string, limit int) []string {
	type conf struct {
		state int
		pos   int
		out   string
	}
	results := map[string]bool{}
	seen := map[conf]bool{}
	queue := []conf{{t.start, 0, ""}}
	budget := 200000
	for len(queue) > 0 && budget > 0 {
		budget--
		c := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if seen[c] {
			continue
		}
		seen[c] = true
		if c.pos == len(input) && t.accept[c.state] {
			results[c.out+string(t.finalOut[c.state])] = true
			if len(results) >= limit {
				break
			}
		}
		for _, e := range t.edges[c.state] {
			switch {
			case e.In == EpsIn:
				nc := conf{e.To, c.pos, c.out + string(e.Out)}
				if len(nc.out) <= len(input)*4+64 { // cut runaway epsilon output
					queue = append(queue, nc)
				}
			case c.pos < len(input) && int(input[c.pos]) == e.In:
				queue = append(queue, conf{e.To, c.pos + 1, c.out + string(e.Out)})
			}
		}
	}
	out := make([]string, 0, len(results))
	for s := range results {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Apply returns the single output for input when the transducer is
// deterministic (at most one output); ok is false when there is no accepting
// run.
func (t *FST) Apply(input string) (string, bool) {
	outs := t.ApplyAll(input, 2)
	if len(outs) == 0 {
		return "", false
	}
	return outs[0], true
}

// RangeNFA returns an NFA accepting every output the transducer can produce
// for any accepted input — the range of the transduction. The string-taint
// analysis uses it as the sound approximation for a string operation that
// occurs inside a grammar cycle (paper §3.1.2).
func (t *FST) RangeNFA() *automata.NFA {
	n := automata.NewNFA()
	states := make([]int, t.NumStates())
	for i := range states {
		states[i] = n.AddState()
	}
	n.AddEps(n.Start(), states[t.start])
	emitChain := func(from int, out []byte, to int) {
		cur := from
		if len(out) == 0 {
			n.AddEps(from, to)
			return
		}
		for i, b := range out {
			next := to
			if i < len(out)-1 {
				next = n.AddState()
			}
			n.AddEdge(cur, int(b), next)
			cur = next
		}
	}
	for s := 0; s < t.NumStates(); s++ {
		for _, e := range t.edges[s] {
			emitChain(states[s], e.Out, states[e.To])
		}
		if t.accept[s] {
			if len(t.finalOut[s]) == 0 {
				n.SetAccept(states[s], true)
			} else {
				fin := n.AddState()
				n.SetAccept(fin, true)
				emitChain(states[s], t.finalOut[s], fin)
			}
		}
	}
	return n
}
