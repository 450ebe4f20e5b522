package analysis

import (
	"slices"

	"sqlciv/internal/grammar"
)

// lower resolves the deferred string-operation productions recorded during
// traversal, converting the extended CFG into a plain CFG (paper §3.1.2).
// Operations whose argument sub-grammar is fully resolved get their exact
// FST image or guard intersection; operations caught in a dependency cycle
// (a string operation applied to a value that depends on the operation's
// own result, e.g. inside a loop) are approximated soundly: an FST by its
// range over all inputs, a guard intersection by the unrefined argument.
func (a *analyzer) lower() {
	if a.opts.SliceToSinks {
		a.sliceOps()
	}
	for len(a.ops) > 0 {
		a.b.Check()
		progress := false
		ready := make([]grammar.Sym, 0)
		for sym, op := range a.ops {
			if a.opReady(op.arg, sym) {
				ready = append(ready, sym)
			}
		}
		slices.Sort(ready) // a fixed order numbers the page grammar alike in every run
		for _, sym := range ready {
			op := a.ops[sym]
			delete(a.ops, sym)
			a.b.Step(1)
			a.materialize(sym, op)
			progress = true
		}
		if !progress {
			// Everything left participates in a cycle: approximate.
			left := make([]grammar.Sym, 0, len(a.ops))
			for sym := range a.ops {
				left = append(left, sym)
			}
			slices.Sort(left)
			for _, sym := range left {
				a.approximate(sym, a.ops[sym])
				a.approx++
			}
			a.ops = map[grammar.Sym]*opApp{}
		}
	}
}

// sliceOps drops deferred operations that cannot influence any query
// hotspot: the backward-slicing improvement of §5.3. Reachability walks
// grammar productions and hops through op arguments.
func (a *analyzer) sliceOps() {
	needed := map[grammar.Sym]bool{}
	var stack []grammar.Sym
	push := func(s grammar.Sym) {
		if a.g.IsNT(s) && !needed[s] {
			needed[s] = true
			stack = append(stack, s)
		}
	}
	for _, h := range a.hotspots {
		push(h.Root)
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for pi := 0; pi < a.g.NumProdsOf(s); pi++ {
			for _, x := range a.g.Rhs(s, pi) {
				if !grammar.IsTerminal(x) {
					push(x)
				}
			}
		}
		if op, ok := a.ops[s]; ok {
			push(op.arg)
		}
	}
	for sym := range a.ops {
		if !needed[sym] {
			delete(a.ops, sym)
			a.sliced++
		}
	}
}

// opReady reports whether no unresolved op nonterminal is reachable from
// arg (and the op does not feed itself).
func (a *analyzer) opReady(arg, self grammar.Sym) bool {
	if arg == self {
		return false
	}
	n := a.g.NumNTs()
	if cap(a.reachBuf) < n {
		a.reachBuf = make([]bool, n)
	} else {
		a.reachBuf = a.reachBuf[:n]
		clear(a.reachBuf)
	}
	for i, ok := range a.g.ReachableInto(arg, a.reachBuf) {
		if !ok {
			continue
		}
		nt := grammar.Sym(grammar.NumTerminals + i)
		if _, unresolved := a.ops[nt]; unresolved {
			return false
		}
	}
	return true
}

func (a *analyzer) materialize(sym grammar.Sym, op *opApp) {
	if root, ok := a.construct(op); ok {
		a.g.Add(sym, root)
		a.g.TaintIf(root, sym)
	}
	// An empty image/intersection leaves sym with no productions: the
	// empty language, which is exactly right (the branch is dead or the
	// transduction rejects every value).
}

func (a *analyzer) approximate(sym grammar.Sym, op *opApp) {
	switch op.kind {
	case opFST:
		lbl := a.labelsThroughOps(op.arg)
		root := grammar.FromNFAInto(a.g, op.t.RangeNFA(), lbl)
		a.g.Add(sym, root)
		if lbl != 0 {
			a.g.AddLabel(sym, lbl)
		}
	case opIntersect:
		// Dropping the refinement only widens the language: sound.
		a.g.Add(sym, op.arg)
		a.g.TaintIf(op.arg, sym)
	}
}

// labelsThroughOps unions the labels reachable from sym, hopping through
// unresolved op arguments.
func (a *analyzer) labelsThroughOps(sym grammar.Sym) grammar.Label {
	lbl := grammar.Label(0)
	seen := map[grammar.Sym]bool{}
	stack := []grammar.Sym{sym}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[s] || !a.g.IsNT(s) {
			continue
		}
		seen[s] = true
		lbl |= a.g.LabelOf(s)
		for pi := 0; pi < a.g.NumProdsOf(s); pi++ {
			for _, x := range a.g.Rhs(s, pi) {
				if !grammar.IsTerminal(x) && !seen[x] {
					stack = append(stack, x)
				}
			}
		}
		if op, ok := a.ops[s]; ok && !seen[op.arg] {
			stack = append(stack, op.arg)
		}
	}
	return lbl
}
