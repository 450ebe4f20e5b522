package deriv

import "sqlciv/internal/grammar"

// flatten inlines every nonterminal of sub that is neither labeled, nor in
// a cycle, nor the root, producing for each remaining "variable" the list
// of its productions as sentential forms over terminals and variables.
// Inlining is what makes Thiemann-style derivability effective on the
// dataflow-shaped grammars the string analysis emits: concatenation chains
// collapse into the long literal fragments a reference parse can actually
// recognize.
func (c *Checker) flatten(sub *grammar.Grammar, root grammar.Sym) (vars []grammar.Sym, rules [][]form, ok bool) {
	n := sub.NumNTs()
	inCycle := sub.InCycle()
	varIdx := make([]int, n) // -1 for a nonterminal that is inlined
	for i := range varIdx {
		varIdx[i] = -1
		nt := grammar.Sym(grammar.NumTerminals + i)
		if nt == root || inCycle[i] || sub.LabelOf(nt) != 0 {
			varIdx[i] = len(vars)
			vars = append(vars, nt)
		}
	}

	// expansions[i] for an inlined i: all expanded forms (the cross product
	// of its constituents' expansions), capped.
	const maxFormsPerNT = 16
	expansions := make([][]form, n)
	visiting := make([]bool, n)
	var expand func(i int) bool
	// forms appends the forms of one right-hand side to dst, failing past
	// limit forms of it or MaxFormLen symbols.
	forms := func(dst []form, rhs []grammar.Sym, limit int) ([]form, bool) {
		partial := []form{{}}
		for _, s := range rhs {
			var pieces []form
			switch j := int(s) - grammar.NumTerminals; {
			case j < 0:
				pieces = []form{{s}}
			case varIdx[j] >= 0:
				pieces = []form{{grammar.Sym(-(varIdx[j] + 1))}}
			case !expand(j):
				return nil, false
			default:
				pieces = expansions[j]
			}
			var next []form
			for _, p := range partial {
				for _, q := range pieces {
					if len(p)+len(q) > c.MaxFormLen {
						return nil, false
					}
					f := make(form, 0, len(p)+len(q))
					next = append(next, append(append(f, p...), q...))
				}
			}
			if partial = next; len(partial) > limit {
				return nil, false
			}
		}
		return append(dst, partial...), true
	}
	expand = func(i int) bool {
		if expansions[i] != nil || varIdx[i] >= 0 {
			return true
		}
		if visiting[i] {
			// Acyclicity of inlined nonterminals guarantees this cannot
			// happen; bail conservatively if it somehow does.
			return false
		}
		visiting[i] = true
		defer func() { visiting[i] = false }()
		nt := grammar.Sym(grammar.NumTerminals + i)
		out := []form{} // non-nil even for an empty language: the memo mark
		for pi := range sub.NumProdsOf(nt) {
			var ok bool
			if out, ok = forms(out, sub.Rhs(nt, pi), maxFormsPerNT); !ok || len(out) > maxFormsPerNT {
				return false
			}
		}
		expansions[i] = out
		return true
	}

	total := 0
	rules = make([][]form, len(vars))
	for vi, nt := range vars {
		for pi := range sub.NumProdsOf(nt) {
			var ok bool
			if rules[vi], ok = forms(rules[vi], sub.Rhs(nt, pi), maxFormsPerNT*4); !ok {
				return nil, nil, false
			}
		}
		if total += len(rules[vi]); total > c.MaxFlattenProds {
			return nil, nil, false
		}
	}
	return vars, rules, true
}
