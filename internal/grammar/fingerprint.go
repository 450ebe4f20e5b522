package grammar

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"sync"

	"sqlciv/internal/budget"
)

// Fingerprint is a canonical content hash of an annotated sub-grammar. Two
// grammars that differ only in nonterminal identity (numbering / creation
// order) or in the order productions were added — α-renamed and
// production-permuted copies — get equal fingerprints; any difference in
// structure, taint labels, or source names changes the hash. SliceKey
// returns the same type; it, not the fingerprint, keys both verdict caches,
// because witness selection and check 5 run on the uncompacted slice and
// may depend on its production order.
type Fingerprint [sha256.Size]byte

// Hex renders the fingerprint as lowercase hex — the canonical stable form
// the persistent caches (verdict store, incremental page summaries) embed
// in file names and entry bodies.
func (fp Fingerprint) Hex() string { return hex.EncodeToString(fp[:]) }

// fnv-1a style mixing for the refinement colors.
const (
	colorOffset = 0xcbf29ce484222325
	colorPrime  = 0x100000001b3
)

func mixColor(h, v uint64) uint64 {
	h ^= v
	h *= colorPrime
	return h
}

// maxColorRounds caps the refinement: grammars whose sibling productions
// agree beyond this structural depth fall back to production order for
// their relative traversal, so two isomorphic copies may hash differently;
// equal hashes still mean isomorphic grammars (the serialization is
// complete).
const maxColorRounds = 24

// colorize assigns every reachable nonterminal a structural color by
// Weisfeiler-Leman refinement: the initial color hashes the local
// invariants (taint label, raw name, production count), and each round
// folds in the sorted multiset of production hashes, where a production
// hashes its length and its symbols — terminals concretely, nonterminals by
// their current color. The canonical traversal only needs each
// nonterminal's *sibling* productions told apart, so rounds repeat exactly
// until every equal-hash sibling pair is byte-identical (interchangeable) —
// typically 2-3 rounds — or the cap is hit. The returned per-production
// hashes of the final round order production traversal canonically,
// independent of symbol numbering and production insertion order.
func (g *Grammar) colorize(order []Sym) (color []uint64, prodHash [][]uint64) {
	color = make([]uint64, g.NumNTs())
	prodHash = make([][]uint64, g.NumNTs())
	// One flat backing array for all per-production hashes instead of one
	// heap slice per reachable nonterminal.
	totalProds := 0
	for _, nt := range order {
		totalProds += g.numProdsAt(g.ntIndex(nt))
	}
	hashSlab := make([]uint64, totalProds)
	for _, nt := range order {
		i := g.ntIndex(nt)
		np := g.numProdsAt(i)
		h := uint64(colorOffset)
		h = mixColor(h, uint64(g.labels[i]))
		for _, c := range []byte(g.names[i]) {
			h = mixColor(h, uint64(c))
		}
		h = mixColor(h, uint64(np))
		color[i] = h
		prodHash[i], hashSlab = hashSlab[:np:np], hashSlab[np:]
	}
	next := make([]uint64, g.NumNTs())
	type hp struct {
		h  uint64
		pi int32
	}
	scratch := make([]hp, 0, 8)
	var seen u64set
	distinct := func(of []uint64) int {
		seen.reset()
		for _, nt := range order {
			seen.add(of[g.ntIndex(nt)])
		}
		return len(seen.used)
	}
	classes := 0
	for round := 0; round < maxColorRounds; round++ {
		ambiguous := false
		for _, nt := range order {
			i := g.ntIndex(nt)
			scratch = scratch[:0]
			for pi := 0; pi < g.numProdsAt(i); pi++ {
				rhs := g.rhsAt(i, pi)
				h := uint64(colorOffset)
				h = mixColor(h, uint64(len(rhs)))
				for _, s := range rhs {
					if IsTerminal(s) {
						h = mixColor(h, uint64(s))
					} else {
						// Tag nonterminals into a code space disjoint from
						// terminals before folding in the color.
						h = mixColor(h, 1)
						h = mixColor(h, color[g.ntIndex(s)])
					}
				}
				prodHash[i][pi] = h
				scratch = append(scratch, hp{h: h, pi: int32(pi)})
			}
			slices.SortFunc(scratch, func(a, b hp) int { return cmp.Compare(a.h, b.h) })
			h := color[i]
			for k, v := range scratch {
				h = mixColor(h, v.h)
				if k > 0 && v.h == scratch[k-1].h &&
					!sameRHS(g.rhsAt(i, int(v.pi)), g.rhsAt(i, int(scratch[k-1].pi))) {
					ambiguous = true
				}
			}
			next[i] = h
		}
		if !ambiguous {
			break
		}
		// New colors are functions of old colors, so the partition only
		// refines; when the class count stops growing the refinement is at
		// its fixpoint and the residual ambiguous siblings are structurally
		// indistinguishable — further rounds cannot help.
		if d := distinct(next); d == classes {
			break
		} else {
			classes = d
		}
		for _, nt := range order {
			i := g.ntIndex(nt)
			color[i] = next[i]
		}
	}
	return color, prodHash
}

// sameRHS reports whether two right-hand sides are identical symbol
// sequences (and hence interchangeable in any traversal).
func sameRHS(a, b []Sym) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CanonicalOrder returns the nonterminals reachable from root in canonical
// order: breadth-first first-visit order from root, traversing each
// nonterminal's productions sorted by their structural hash. The order is
// invariant under α-renaming and under permutation of production order — it
// depends only on the sub-grammar's shape, never on symbol numbering or the
// sequence in which productions were added.
func (g *Grammar) CanonicalOrder(root Sym) []Sym {
	order, _, _ := g.canonicalize(root)
	return order
}

// canonicalize computes the canonical order plus, per nonterminal index,
// the production traversal order (production indices sorted by structural
// hash) shared by CanonicalOrder and Fingerprint.
func (g *Grammar) canonicalize(root Sym) (order []Sym, canon []int32, prodOrder [][]int32) {
	// Discovery pass: any reachability order works for colorize, which
	// iterates to a numbering-independent fixpoint.
	reach := make([]Sym, 0, 16)
	seen := make([]bool, g.NumNTs())
	reach = append(reach, root)
	seen[g.ntIndex(root)] = true
	for qi := 0; qi < len(reach); qi++ {
		i := g.ntIndex(reach[qi])
		for pi := 0; pi < g.numProdsAt(i); pi++ {
			for _, s := range g.rhsAt(i, pi) {
				if !IsTerminal(s) && !seen[g.ntIndex(s)] {
					seen[g.ntIndex(s)] = true
					reach = append(reach, s)
				}
			}
		}
	}
	_, prodHash := g.colorize(reach)

	prodOrder = make([][]int32, g.NumNTs())
	totalProds := 0
	for _, nt := range reach {
		totalProds += g.numProdsAt(g.ntIndex(nt))
	}
	poSlab := make([]int32, totalProds)
	for _, nt := range reach {
		i := g.ntIndex(nt)
		np := g.numProdsAt(i)
		var po []int32
		po, poSlab = poSlab[:np:np], poSlab[np:]
		for k := range po {
			po[k] = int32(k)
		}
		slices.SortStableFunc(po, func(a, b int32) int {
			return cmp.Compare(prodHash[i][a], prodHash[i][b])
		})
		prodOrder[i] = po
	}

	// Canonical numbering: BFS from root following the hash-sorted
	// production order. (Productions with equal hashes are structurally
	// indistinguishable at the refinement fixpoint, so their relative order
	// cannot change the discovered shape.)
	for i := range seen {
		seen[i] = false
	}
	order = make([]Sym, 0, len(reach))
	order = append(order, root)
	seen[g.ntIndex(root)] = true
	for qi := 0; qi < len(order); qi++ {
		i := g.ntIndex(order[qi])
		for _, pi := range prodOrder[i] {
			for _, s := range g.rhsAt(i, int(pi)) {
				if !IsTerminal(s) && !seen[g.ntIndex(s)] {
					seen[g.ntIndex(s)] = true
					order = append(order, s)
				}
			}
		}
	}
	canon = make([]int32, g.NumNTs())
	for i := range canon {
		canon[i] = -1
	}
	for ci, nt := range order {
		canon[g.ntIndex(nt)] = int32(ci)
	}
	return order, canon, prodOrder
}

// Fingerprint hashes the sub-grammar reachable from root into its
// canonical fingerprint. Nonterminals are renumbered along CanonicalOrder
// and productions serialized in canonical (structural-hash, then
// canonical-symbol) order; the serialization covers, per nonterminal: its
// taint label, its raw name, and every production as a tagged symbol
// sequence. The serialization is a complete description of the annotated
// sub-grammar, so equal fingerprints mean isomorphic grammars (up to hash
// collision). No cache is keyed by it; the golden corpus fixture pins each
// hotspot slice's fingerprint and its compacted form's, so a change that
// alters a slice's shape shows there.
func (g *Grammar) Fingerprint(root Sym) Fingerprint {
	return g.fingerprintFrom(g.canonicalize(root))
}

// fingerprintFrom serializes an already-canonicalized sub-grammar.
func (g *Grammar) fingerprintFrom(order []Sym, canon []int32, prodOrder [][]int32) Fingerprint {
	h := sha256.New()
	var buf [8]byte
	writeU32 := func(v uint32) {
		binary.LittleEndian.PutUint32(buf[:4], v)
		h.Write(buf[:4])
	}
	// Serialize productions sorted by their canonical symbol sequence:
	// the structural-hash order from canonicalize is numbering-free but
	// hash-valued, so re-sort by the now-assigned canonical ids to make the
	// serialization observable and collision-independent.
	symCode := func(s Sym) uint32 {
		if IsTerminal(s) {
			return uint32(s)
		}
		return uint32(NumTerminals) + uint32(canon[g.ntIndex(s)])
	}
	for _, nt := range order {
		i := g.ntIndex(nt)
		writeU32(uint32(g.labels[i]))
		writeU32(uint32(len(g.names[i])))
		h.Write([]byte(g.names[i]))
		writeU32(uint32(g.numProdsAt(i)))
		// In-place, non-stable sort: a full tie means identical canonical
		// symbol sequences, which serialize identically in any order.
		po := prodOrder[i]
		slices.SortFunc(po, func(a, b int32) int {
			ra, rb := g.rhsAt(i, int(a)), g.rhsAt(i, int(b))
			for k := 0; k < len(ra) && k < len(rb); k++ {
				if ca, cb := symCode(ra[k]), symCode(rb[k]); ca != cb {
					return cmp.Compare(ca, cb)
				}
			}
			return cmp.Compare(len(ra), len(rb))
		})
		for _, pi := range po {
			rhs := g.rhsAt(i, int(pi))
			writeU32(uint32(len(rhs)))
			for _, s := range rhs {
				writeU32(symCode(s))
			}
		}
	}
	var fp Fingerprint
	h.Sum(fp[:0])
	return fp
}

// SliceKey hashes the sub-grammar reachable from root exactly as it is
// stored. Nonterminals are numbered in breadth-first discovery order from
// root, following each nonterminal's productions in insertion order; each
// contributes its taint label, its raw name and its productions in that
// order, and terminals are coded by value. The key is invariant under
// renumbering but, unlike Fingerprint, not under production permutation, so
// it needs no refinement and no sort: one pass, charging b a step per
// nonterminal and per production. The serialization is complete, so equal
// keys mean slices identical up to numbering (up to a SHA-256 collision),
// and every pure function of a slice agrees on them: CompactSlice's output
// and census, Fingerprint, and the policy cascade's verdict, witnesses
// included. Both of the policy checker's verdict tiers are keyed by it.
// The Figure 7 constructions over a slice are pure functions of its key and
// their automaton too: NewReach numbers locals depth-first from the root in
// production order, and IntersectIntoT and fst.ImageInto create only fresh
// nonterminals named and labeled after the slice's, so what they add to a
// grammar (see Record) is the same for every slice with the key. With the
// automaton's content it keys the lowering memo (internal/analysis).
func (g *Grammar) SliceKey(root Sym, b *budget.Budget) Fingerprint {
	ks := keyPool.Get().(*keyScratch)
	defer keyPool.Put(ks)
	ks.begin(g.NumNTs())
	h := sha256.New()
	buf := ks.buf[:0]
	r := g.ntIndex(root)
	ks.stamp[r], ks.id[r] = ks.pass, 0
	queue := append(ks.queue[:0], int32(r))
	for qi := 0; qi < len(queue); qi++ {
		i := int(queue[qi])
		np := g.numProdsAt(i)
		b.Step(int64(1 + np))
		buf = binary.AppendUvarint(buf, uint64(g.labels[i]))
		buf = binary.AppendUvarint(buf, uint64(len(g.names[i])))
		buf = append(buf, g.names[i]...)
		buf = binary.AppendUvarint(buf, uint64(np))
		for pi := 0; pi < np; pi++ {
			rhs := g.rhsAt(i, pi)
			buf = binary.AppendUvarint(buf, uint64(len(rhs)))
			for _, s := range rhs {
				if IsTerminal(s) {
					buf = binary.AppendUvarint(buf, uint64(s))
					continue
				}
				j := g.ntIndex(s)
				if ks.stamp[j] != ks.pass {
					ks.stamp[j], ks.id[j] = ks.pass, uint32(len(queue))
					queue = append(queue, int32(j))
				}
				buf = binary.AppendUvarint(buf, uint64(NumTerminals)+uint64(ks.id[j]))
			}
			if len(buf) >= keyFlushBytes {
				h.Write(buf)
				buf = buf[:0]
			}
		}
	}
	h.Write(buf)
	ks.buf, ks.queue = buf[:0], queue[:0]
	var k Fingerprint
	h.Sum(k[:0])
	return k
}

// keyFlushBytes is how much serialized slice SliceKey buffers between
// writes to the hash.
const keyFlushBytes = 32 << 10

// keyScratch is SliceKey's pooled working state. A nonterminal's discovery
// number is valid only while its stamp equals the current pass's, so a pass
// that a budget trip abandons leaves nothing the next pass must clear.
type keyScratch struct {
	pass  uint32
	stamp []uint32 // per nonterminal index: the pass that numbered it
	id    []uint32 // per nonterminal index: its discovery number
	queue []int32
	buf   []byte
}

var keyPool = sync.Pool{New: func() any { return new(keyScratch) }}

// begin starts a pass over a grammar with n nonterminals.
func (ks *keyScratch) begin(n int) {
	if len(ks.stamp) < n {
		ks.stamp, ks.id, ks.pass = make([]uint32, n), make([]uint32, n), 0
	}
	ks.pass++
	if ks.pass == 0 { // wrapped: forget every stamp
		clear(ks.stamp)
		ks.pass = 1
	}
}
