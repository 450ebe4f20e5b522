// Package grammar implements the labeled context-free grammars at the heart
// of the analysis (paper §2.2, §3.1): symbols, taint labels on nonterminals,
// grammar construction, normalization, emptiness/witness computation,
// sub-grammar extraction, SCC condensation, an Earley recognizer, and the
// taint-propagating CFG ∩ FSA intersection of the paper's Figure 7.
package grammar

import (
	"fmt"
	"strings"

	"sqlciv/internal/automata"
)

// Sym is a grammar symbol. Values below NumTerminals are terminals (bytes
// 0..255 plus the reserved context marker); values at or above NumTerminals
// are nonterminal identifiers local to one Grammar.
type Sym int32

// NumTerminals is the size of the terminal alphabet, matching the automata
// alphabet exactly so grammars and automata compose without translation.
const NumTerminals = automata.AlphabetSize

// MarkerSym is the reserved context-marker terminal t_X used by policy
// check 2 (paper §3.2.1) to stand in for a labeled nonterminal.
const MarkerSym Sym = automata.Marker

// IsTerminal reports whether s is a terminal symbol.
func IsTerminal(s Sym) bool { return s >= 0 && s < NumTerminals }

// T returns the terminal symbol for byte b.
func T(b byte) Sym { return Sym(b) }

// TermString converts a byte string into its terminal symbol sequence.
func TermString(s string) []Sym {
	out := make([]Sym, len(s))
	for i := 0; i < len(s); i++ {
		out[i] = Sym(s[i])
	}
	return out
}

// TermsToString renders a terminal sequence as a string; the marker renders
// as the bullet "•" so contexts remain readable in reports.
func TermsToString(syms []Sym) string {
	var b strings.Builder
	for _, s := range syms {
		if s == MarkerSym {
			b.WriteString("•")
		} else if IsTerminal(s) {
			b.WriteByte(byte(s))
		} else {
			fmt.Fprintf(&b, "<N%d>", int(s)-NumTerminals)
		}
	}
	return b.String()
}

// Label is a taint label bitset on a nonterminal (paper §2.2): Direct marks
// data a user controls immediately (GET/POST/cookie parameters); Indirect
// marks data from sources a user may influence transitively (database rows).
type Label uint8

// Taint label values.
const (
	Direct Label = 1 << iota
	Indirect
)

// String renders a label set.
func (l Label) String() string {
	switch {
	case l&Direct != 0 && l&Indirect != 0:
		return "direct|indirect"
	case l&Direct != 0:
		return "direct"
	case l&Indirect != 0:
		return "indirect"
	}
	return "none"
}

// Grammar is a context-free grammar with labeled nonterminals. Nonterminal
// identifiers are dense and local to one Grammar instance.
//
// Every right-hand side lives in the flat syms slab (or the process-global
// interned terminal-run pool, see arena.go) and refs[i] holds its {off, len}
// references.
type Grammar struct {
	names    []string
	labels   []Label
	refs     [][]prodRef // refs[ntIndex][prodIndex] -> syms/pool
	syms     []Sym       // flat RHS symbol slab
	start    Sym
	numProds int
	keyBuf   []byte // scratch for intern-pool probes (single-writer)
	// internHits / internMisses count g's own intern-pool probes
	// (single-writer, like keyBuf).
	internHits, internMisses int64
}

// New returns an empty grammar with no nonterminals and no start symbol.
func New() *Grammar { return &Grammar{start: -1} }

// NewNT adds a fresh nonterminal. An empty name is allowed; Name fabricates
// a placeholder when asked.
func (g *Grammar) NewNT(name string) Sym {
	g.names = append(g.names, name)
	g.labels = append(g.labels, 0)
	g.refs = append(g.refs, nil)
	return Sym(NumTerminals + len(g.names) - 1)
}

// NumNTs reports the number of nonterminals (the paper's |V|).
func (g *Grammar) NumNTs() int { return len(g.names) }

// NumProds reports the number of productions (the paper's |R|).
func (g *Grammar) NumProds() int { return g.numProds }

// ntIndex converts a nonterminal symbol to its dense index.
func (g *Grammar) ntIndex(s Sym) int {
	i := int(s) - NumTerminals
	if i < 0 || i >= len(g.names) {
		panic(fmt.Sprintf("grammar: %d is not a nonterminal of this grammar", s))
	}
	return i
}

// IsNT reports whether s is a nonterminal belonging to g.
func (g *Grammar) IsNT(s Sym) bool {
	i := int(s) - NumTerminals
	return i >= 0 && i < len(g.names)
}

// Add appends the production lhs → rhs.
func (g *Grammar) Add(lhs Sym, rhs ...Sym) {
	i := g.ntIndex(lhs)
	g.refs[i] = append(g.refs[i], g.placeRHS(rhs))
	g.numProds++
}

// AddString appends the production lhs → the terminal sequence of s. Long
// strings intern directly against the global pool with no intermediate
// symbol slice.
func (g *Grammar) AddString(lhs Sym, s string) {
	if len(s) >= internMinRun && len(s) < internChunkSize {
		i := g.ntIndex(lhs)
		r, hit := internRun(s)
		g.countIntern(hit)
		g.refs[i] = append(g.refs[i], r)
		g.numProds++
		return
	}
	g.Add(lhs, TermString(s)...)
}

// placeRHS stores rhs in the grammar's slab — or, for a long pure-terminal
// run, in the process-global intern pool — and returns its reference.
func (g *Grammar) placeRHS(rhs []Sym) prodRef {
	if n := len(rhs); n >= internMinRun && n < internChunkSize {
		key := g.keyBuf[:0]
		for _, s := range rhs {
			if !IsTerminal(s) || s == MarkerSym {
				key = nil
				break
			}
			key = append(key, byte(s))
		}
		if key != nil {
			g.keyBuf = key
			r, hit := internRunBytes(key)
			g.countIntern(hit)
			return r
		}
	}
	off := len(g.syms)
	g.syms = append(g.syms, rhs...)
	return prodRef{off: int32(off), n: int32(len(rhs))}
}

// addRef appends an already-placed production reference to nt. Internal
// callers (Extract, CompactSlice) use it to share interned regions without
// re-probing the pool.
func (g *Grammar) addRef(nt Sym, r prodRef) {
	i := g.ntIndex(nt)
	g.refs[i] = append(g.refs[i], r)
	g.numProds++
}

// NumProdsOf reports how many productions nt has.
func (g *Grammar) NumProdsOf(nt Sym) int { return g.numProdsAt(g.ntIndex(nt)) }

// Rhs returns the right-hand side of nt's pi-th production. The caller must
// not mutate the returned slice; it aliases the grammar's storage.
func (g *Grammar) Rhs(nt Sym, pi int) []Sym { return g.rhsAt(g.ntIndex(nt), pi) }

func (g *Grammar) numProdsAt(i int) int { return len(g.refs[i]) }

func (g *Grammar) rhsAt(i, pi int) []Sym { return g.refSyms(g.refs[i][pi]) }

// refSyms resolves a production reference to its symbol slice.
func (g *Grammar) refSyms(r prodRef) []Sym {
	if r.off < 0 {
		return internSlice(r.off, r.n)
	}
	off, end := int(r.off), int(r.off)+int(r.n)
	return g.syms[off:end:end]
}

// clearProds removes every production of nt, keeping the nonterminal.
func (g *Grammar) clearProds(nt Sym) {
	i := g.ntIndex(nt)
	g.numProds -= g.numProdsAt(i)
	g.refs[i] = nil
}

// SetStart sets the start nonterminal.
func (g *Grammar) SetStart(s Sym) { g.ntIndex(s); g.start = s }

// Start returns the start nonterminal, or -1 if unset.
func (g *Grammar) Start() Sym { return g.start }

// RawName returns the name a nonterminal was created with ("" when
// anonymous). Constructions (intersection, FST image) carry names through
// so reports can point at the original source of a value.
func (g *Grammar) RawName(s Sym) string { return g.names[g.ntIndex(s)] }

// Name returns a human-readable name for a symbol.
func (g *Grammar) Name(s Sym) string {
	if IsTerminal(s) {
		if s == MarkerSym {
			return "t_X"
		}
		return fmt.Sprintf("%q", byte(s))
	}
	i := g.ntIndex(s)
	if g.names[i] == "" {
		return fmt.Sprintf("N%d", i)
	}
	return g.names[i]
}

// SetLabel replaces the label set of nt.
func (g *Grammar) SetLabel(nt Sym, l Label) { g.labels[g.ntIndex(nt)] = l }

// AddLabel ors l into nt's label set (the paper's ADDLABEL).
func (g *Grammar) AddLabel(nt Sym, l Label) { g.labels[g.ntIndex(nt)] |= l }

// LabelOf returns nt's label set.
func (g *Grammar) LabelOf(nt Sym) Label { return g.labels[g.ntIndex(nt)] }

// HasLabel reports whether nt carries l (the paper's HASLABEL).
func (g *Grammar) HasLabel(nt Sym, l Label) bool { return g.labels[g.ntIndex(nt)]&l != 0 }

// TaintIf copies labels from src to dst, the paper's TAINTIF helper.
func (g *Grammar) TaintIf(src, dst Sym) {
	if g.HasLabel(src, Direct) {
		g.AddLabel(dst, Direct)
	}
	if g.HasLabel(src, Indirect) {
		g.AddLabel(dst, Indirect)
	}
}

// LabeledNTs returns every nonterminal carrying at least one label.
func (g *Grammar) LabeledNTs() []Sym {
	var out []Sym
	for i, l := range g.labels {
		if l != 0 {
			out = append(out, Sym(NumTerminals+i))
		}
	}
	return out
}

// ForEachProd calls f for every production in the grammar.
func (g *Grammar) ForEachProd(f func(lhs Sym, rhs []Sym)) {
	for i := 0; i < len(g.names); i++ {
		lhs := Sym(NumTerminals + i)
		np := g.numProdsAt(i)
		for pi := 0; pi < np; pi++ {
			f(lhs, g.rhsAt(i, pi))
		}
	}
}

// String renders the grammar in a Figure-4 style listing: one production per
// line, labeled nonterminals annotated.
func (g *Grammar) String() string {
	var b strings.Builder
	for i := 0; i < len(g.names); i++ {
		lhs := Sym(NumTerminals + i)
		for pi := 0; pi < g.numProdsAt(i); pi++ {
			rhs := g.rhsAt(i, pi)
			b.WriteString(g.Name(lhs))
			if l := g.labels[i]; l != 0 {
				fmt.Fprintf(&b, "[%s]", l)
			}
			b.WriteString(" -> ")
			if len(rhs) == 0 {
				b.WriteString("ε")
			}
			run := []byte(nil)
			flush := func() {
				if len(run) > 0 {
					fmt.Fprintf(&b, "%q ", run)
					run = nil
				}
			}
			for _, s := range rhs {
				if IsTerminal(s) && s != MarkerSym {
					run = append(run, byte(s))
					continue
				}
				flush()
				b.WriteString(g.Name(s))
				b.WriteString(" ")
			}
			flush()
			b.WriteString("\n")
		}
	}
	return b.String()
}
