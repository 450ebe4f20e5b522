package policy

import (
	"sqlciv/internal/budget"
	"sqlciv/internal/grammar"
	"sqlciv/internal/obs"
)

// Check 2 support: quote-parity contexts. The parity DFA's four states are
// parity*2 + esc (see buildQuoteParityDFA); odd-parity states are 2 and 3,
// so a nonterminal sits only inside string literals when its context mask
// is nonempty and avoids states 0 and 1.

type contextInfo struct {
	ctx []uint32
}

const evenParityMask = 0b0011

// literalOnly reports whether nt occurs in a complete derivation, and if
// so whether every occurrence is in string-literal position.
func (ci *contextInfo) literalOnly(nt grammar.Sym) (occurs, literal bool) {
	m := ci.ctx[int(nt)-grammar.NumTerminals]
	if m == 0 {
		return false, false
	}
	return true, m&evenParityMask == 0
}

// computeContexts runs the shared relation/context machinery over the
// quote-parity DFA.
func (t *tables) computeContexts(g *grammar.Grammar, root grammar.Sym, parityRels [][]uint32, minLens []int64, b *budget.Budget, sp *obs.Span) *contextInfo {
	return &contextInfo{ctx: grammar.ContextsMinT(g, root, t.oddQuotes, parityRels, minLens, b, sp)}
}
