package policy

import "sqlciv/internal/grammar"

// Hooks for the external test package (tables_test.go), which drives
// checkers through the exported API, as core does, and needs to see
// whether a checker has acquired the phase-2 tables.

// TablesAcquired reports whether c has acquired the phase-2 tables. Call it
// only when no check is running on c.
func TablesAcquired(c *Checker) bool { return c.tab != nil }

// SeedVerdict stores res as c's memoized verdict for the slice of g rooted
// at root, under its slice key and with the entry a completed check of that
// slice would have left.
func SeedVerdict(c *Checker, g *grammar.Grammar, root grammar.Sym, res *Result) {
	cg, cstats := grammar.CompactSlice(g, root, nil)
	e := &memoEntry{cfp: cg.G.Fingerprint(cg.Top), cstats: cstats}
	e.res.Store(res)
	c.memo.Store(g.SliceKey(root, nil), e)
}
