package analysis

import (
	"crypto/sha256"
	"sync"

	"sqlciv/internal/budget"
	"sqlciv/internal/fst"
	"sqlciv/internal/grammar"
)

// The lowering memo keeps the Figure 7 constructions lowering has run, so a
// string operation applied again to an equal operand — the same sanitizer
// over the same included value on every page of an app, or every page of a
// resubmitted app in the daemon — replays what the first one added to its
// page grammar instead of running grammar.Reach again (the memoization the
// paper's §5.3 anticipates). A construction is a pure function of its key:
// the operand's slice key (grammar.SliceKey), the kind of operation, and
// the content of its transducer or guard automaton. So the memo is
// process-wide, like automata.Intern and the terminal-run intern pool, and
// sharing it across pages, runs and tenants cannot change a result.
//
// A key's first construction only marks it seen; the second records what
// it added, and later ones replay the record. One-off constructions thus
// keep nothing but a marker.

// lowerMemoCap bounds the bytes the memo's records and seen-markers take.
// An insert that would pass it empties the memo first.
const lowerMemoCap = 8 << 20

// seenBytes is what one key costs the cap: its map entry.
const seenBytes = 64

// lowerKey keys one construction.
type lowerKey [sha256.Size]byte

var lowerMemo struct {
	mu      sync.Mutex
	entries map[lowerKey]*grammar.Record // nil: seen once, not recorded
	bytes   int64
}

// LowerMemoStats reports the lowering memo's keys (seen or recorded) and
// the bytes they count against its cap.
func LowerMemoStats() (entries int, bytes int64) {
	lowerMemo.mu.Lock()
	defer lowerMemo.mu.Unlock()
	return len(lowerMemo.entries), lowerMemo.bytes
}

// memoGet returns k's record, nil when there is none, and whether k was
// seen before.
func memoGet(k lowerKey) (*grammar.Record, bool) {
	lowerMemo.mu.Lock()
	defer lowerMemo.mu.Unlock()
	rec, seen := lowerMemo.entries[k]
	return rec, seen
}

// memoPut marks k seen, with rec as its record when rec is not nil. A key
// that already has a record keeps it.
func memoPut(k lowerKey, rec *grammar.Record) {
	m := &lowerMemo
	m.mu.Lock()
	defer m.mu.Unlock()
	old, seen := m.entries[k]
	if old != nil || seen && rec == nil {
		return
	}
	cost := int64(seenBytes)
	if rec != nil {
		cost += rec.Size()
	}
	if seen {
		m.bytes -= seenBytes
	}
	if m.entries == nil || m.bytes+cost > lowerMemoCap {
		m.entries, m.bytes = map[lowerKey]*grammar.Record{}, 0
	}
	m.entries[k] = rec
	m.bytes += cost
}

// memoKey returns op's key: the operation's kind, its operand's slice key
// and its automaton's content. The key pass is not metered.
func (a *analyzer) memoKey(op *opApp) lowerKey {
	sk := a.g.SliceKey(op.arg, nil)
	buf := append(append(a.keyBuf[:0], byte(op.kind)), sk[:]...)
	if op.kind == opFST {
		buf = op.t.AppendKey(buf)
	} else {
		buf = op.dfa.AppendKey(buf)
	}
	a.keyBuf = buf
	return sha256.Sum256(buf)
}

// construct adds op's construction over its operand to the page grammar and
// returns its result, replaying it from the memo when the page budget can
// afford the recorded charge. Otherwise it runs the construction, which
// trips the budget exactly where it would with no memo; a construction
// that trips records nothing.
func (a *analyzer) construct(op *opApp) (grammar.Sym, bool) {
	key := a.memoKey(op)
	rec, seen := memoGet(key)
	if rec != nil && a.b.Fits(rec.Steps, rec.Bytes) {
		a.b.Step(rec.Steps)
		a.b.Grow(rec.Bytes)
		a.memoHits++
		return a.g.Replay(rec)
	}
	if !seen || rec != nil { // a first sighting, or a record it cannot afford
		root, ok := a.run(op, a.b)
		memoPut(key, nil)
		a.memoMisses++
		return root, ok
	}
	// The second sighting: record what the construction adds and charges.
	b := a.b
	if b == nil {
		b = budget.Meter()
	}
	steps, mem, mark := b.Steps(), b.MemHigh(), a.g.Mark()
	root, ok := a.run(op, b)
	rec = a.g.Record(mark, root, ok, lowerMemoCap-seenBytes)
	if rec == nil {
		a.memoMisses++
		return root, ok
	}
	rec.Steps, rec.Bytes = b.Steps()-steps, b.MemHigh()-mem
	memoPut(key, rec)
	a.memoRecorded++
	return root, ok
}

// run runs op's Figure 7 construction over its operand, metered by b.
func (a *analyzer) run(op *opApp, b *budget.Budget) (grammar.Sym, bool) {
	if op.kind == opFST {
		return fst.ImageInto(a.g, op.arg, op.t, b)
	}
	// The Figure 7 construction is worst-case O(|R|·|Q|³): meter it
	// against the page budget, not just the one step the op costs.
	return grammar.IntersectIntoT(a.g, op.arg, op.dfa, b, nil)
}
