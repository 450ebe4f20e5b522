package grammar

import (
	"encoding/binary"
	"strings"
)

// A Record is what one construction added to a grammar, kept so another
// grammar can replay it: the fresh nonterminals in creation order, with
// their names and labels, and their productions in the order the
// construction stored them. A Figure 7 construction over a slice (an FST
// image or a guard intersection) creates only fresh nonterminals and is a
// pure function of the slice's key (SliceKey) and its automaton, so
// replaying its record into a grammar holding an equal slice builds exactly
// what running it would: the same numbering, productions and slab layout.
type Record struct {
	names []string // the distinct names, each cloned out of its grammar
	// data is a varint stream: per fresh nonterminal its name's index and
	// its label; then per production its left-hand side's local index, its
	// length and its symbols, a terminal as itself and a fresh nonterminal
	// as NumTerminals plus its local index.
	data   []byte
	nts    int
	prods  int
	result int // the result's local index, or -1 when it was empty
	// Steps and Bytes are what the construction charged its budget.
	Steps, Bytes int64
}

// recordOverhead approximates a Record's fixed footprint: the struct, its
// slice headers and the memo entry that holds it.
const recordOverhead = 128

// Size estimates the bytes a Record keeps resident.
func (rec *Record) Size() int64 {
	n := int64(recordOverhead + len(rec.data))
	for _, s := range rec.names {
		n += int64(16 + len(s))
	}
	return n
}

// Mark is a point in a grammar's growth: how many nonterminals, productions
// and slab symbols it had.
type Mark struct{ nts, prods, syms int }

// Mark returns g's current point, for Record to encode what comes after.
func (g *Grammar) Mark() Mark { return Mark{len(g.names), g.numProds, len(g.syms)} }

// Record encodes what g gained since m as one construction whose result is
// root (meaningful only when ok): every nonterminal created since m, and
// every production added since m, each of which must belong to a fresh
// nonterminal and mention no older one. It returns nil when g's growth is
// not such a construction, or when its encoding would take more than max
// bytes, which it decides before copying anything.
func (g *Grammar) Record(m Mark, root Sym, ok bool, max int) *Record {
	rec := &Record{nts: len(g.names) - m.nts, prods: g.numProds - m.prods, result: -1}
	if ok {
		if i := g.ntIndex(root); i >= m.nts {
			rec.result = i - m.nts
		} else {
			return nil
		}
	}
	// Size the encoding, checking that the growth is self-contained.
	size, prods, slab := 0, 0, 0
	names := map[string]int{}
	for i := m.nts; i < len(g.names); i++ {
		k, seen := names[g.names[i]]
		if !seen {
			k = len(names)
			names[g.names[i]] = k
			size += len(g.names[i])
		}
		size += uvarintLen(uint64(k)) + 1
		for _, r := range g.refs[i] {
			prods++
			if r.off >= 0 {
				if int(r.off) < m.syms {
					return nil
				}
				slab += int(r.n)
			}
			size += uvarintLen(uint64(i-m.nts)) + uvarintLen(uint64(r.n))
			for _, s := range g.refSyms(r) {
				if !IsTerminal(s) {
					if g.ntIndex(s) < m.nts {
						return nil
					}
					s -= Sym(m.nts)
				}
				size += uvarintLen(uint64(s))
			}
		}
		if size > max {
			return nil
		}
	}
	if prods != rec.prods || slab != len(g.syms)-m.syms {
		return nil // a production went to an older nonterminal
	}

	rec.names = make([]string, len(names))
	for s, k := range names {
		rec.names[k] = strings.Clone(s)
	}
	data := make([]byte, 0, size)
	for i := m.nts; i < len(g.names); i++ {
		data = binary.AppendUvarint(data, uint64(names[g.names[i]]))
		data = append(data, byte(g.labels[i]))
	}
	// Productions in storage order: the slab-placed ones by offset, each
	// preceded by the productions its row stored before it (interned runs
	// and empty right-hand sides, which take no slab space), then what
	// each row has left.
	encode := func(i int, r prodRef) {
		data = binary.AppendUvarint(data, uint64(i-m.nts))
		data = binary.AppendUvarint(data, uint64(r.n))
		for _, s := range g.refSyms(r) {
			if !IsTerminal(s) {
				s -= Sym(m.nts)
			}
			data = binary.AppendUvarint(data, uint64(s))
		}
	}
	at := make([]int32, len(g.syms)-m.syms) // slab offset -> its row, +1
	for i := m.nts; i < len(g.names); i++ {
		for _, r := range g.refs[i] {
			if r.off >= 0 && r.n > 0 {
				at[int(r.off)-m.syms] = int32(i-m.nts) + 1
			}
		}
	}
	next := make([]int, rec.nts) // per row: its first production not yet encoded
	for _, row := range at {
		if row == 0 {
			continue
		}
		i := m.nts + int(row) - 1
		refs := g.refs[i]
		for pi := next[row-1]; ; pi++ {
			encode(i, refs[pi])
			if refs[pi].off >= 0 && refs[pi].n > 0 {
				next[row-1] = pi + 1
				break
			}
		}
	}
	for k, pi := range next {
		for _, r := range g.refs[m.nts+k][pi:] {
			encode(m.nts+k, r)
		}
	}
	rec.data = data
	return rec
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// Replay adds rec's construction to g, as running the construction over an
// equal slice would have, and returns its result and whether it is
// nonempty. Productions go through g's own placement, one at a time in the
// recorded order, so the slab grows as it did under the construction.
func (g *Grammar) Replay(rec *Record) (Sym, bool) {
	base := len(g.names)
	d := rec.data
	for k := 0; k < rec.nts; k++ {
		name, n := uvarint(d)
		g.NewNT(rec.names[name])
		g.labels[base+k] = Label(d[n])
		d = d[n+1:]
	}
	var rhs []Sym
	for p := 0; p < rec.prods; p++ {
		lhs, n := uvarint(d)
		d = d[n:]
		ln, n := uvarint(d)
		d = d[n:]
		rhs = rhs[:0]
		for ; ln > 0; ln-- {
			v, n := uvarint(d)
			d = d[n:]
			if s := Sym(v); s < NumTerminals {
				rhs = append(rhs, s)
			} else {
				rhs = append(rhs, s+Sym(base))
			}
		}
		i := base + int(lhs)
		g.refs[i] = append(g.refs[i], g.placeRHS(rhs))
		g.numProds++
	}
	if rec.result < 0 {
		return 0, false
	}
	return Sym(NumTerminals + base + rec.result), true
}

// uvarint is binary.Uvarint with a one-byte fast path.
func uvarint(d []byte) (uint64, int) {
	if len(d) > 0 && d[0] < 0x80 {
		return uint64(d[0]), 1
	}
	return binary.Uvarint(d)
}
