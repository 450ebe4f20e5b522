package policy

import "sqlciv/internal/grammar"

// Hooks for the external test package (tables_test.go, warm_test.go),
// which drives checkers through the exported API, as core does, and needs
// to see whether a checker has acquired the phase-2 tables and what a cache
// hit must reproduce.

// TablesAcquired reports whether c has acquired the phase-2 tables. Call it
// only when no check is running on c.
func TablesAcquired(c *Checker) bool { return c.tab != nil }

// SeedVerdict stores res as c's memoized verdict for the slice of g rooted
// at root, under its slice key, as a completed check of that slice would.
func SeedVerdict(c *Checker, g *grammar.Grammar, root grammar.Sym, res *Result) {
	c.memo.Store(g.SliceKey(root, nil), res)
}

// Answer returns what a verdict-cache hit must reproduce of r: r without
// its wall-clock time, its probes and its budget use (each check reports
// its own).
func Answer(r *Result) Result {
	a := *r
	a.CheckTime, a.Memo, a.Disk, a.BudgetSteps, a.BudgetMemHigh = 0, NotProbed, NotProbed, 0, 0
	return a
}
