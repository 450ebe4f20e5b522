package grammar

import (
	"sync"
	"sync/atomic"
)

// Arena-backed grammar storage. A Grammar keeps every right-hand side in one
// per-grammar append-only symbol slab, and productions are {offset, length}
// references into it — building a 70k-production page grammar costs a
// handful of slab reallocations instead of one heap object per production.
// Pure-terminal runs (string literals, which repeat heavily across pages and
// hotspots of one app) are additionally interned process-globally: equal
// content maps to the same region of a shared immutable slab, so index
// equality is content equality — the same discipline automata.Intern applies
// to DFAs.

// prodRef locates one production's right-hand side: n symbols at off. A
// non-negative off indexes the owning grammar's slab; a negative off encodes
// a region of the process-global interned terminal-run pool (see internOff).
type prodRef struct {
	off int32
	n   int32
}

// internMinRun is the shortest pure-terminal right-hand side worth the
// intern-map probe. Shorter runs (the 1–2 symbol productions intersection
// and NFA conversion emit in bulk) go straight to the grammar slab.
const internMinRun = 4

// internChunkShift sizes the global pool's chunks: runs live inside one
// chunk, so chunks never move once allocated and readers need no lock —
// only an atomic load of the chunk table.
const internChunkShift = 16

const internChunkSize = 1 << internChunkShift

// internArena is the process-global terminal-run arena. The chunk table is
// copy-on-write behind an atomic pointer so Rhs can decode a reference with
// one atomic load; the index map and the write cursor are mutex-guarded.
type internArena struct {
	chunks atomic.Pointer[[][]Sym]

	mu   sync.Mutex
	idx  map[string]prodRef // raw byte string of the run -> negative-off ref
	cur  []Sym              // current chunk being filled (chunks[curN-1])
	curN int                // number of published chunks
	fill int                // symbols used in cur
	used int64              // total symbols interned
}

var internPool internArena

// internStats counts global intern-map traffic: a hit reuses an existing
// region, a miss copies the run into the shared slab once per process.
var internStats struct{ hits, misses atomic.Int64 }

// encodeInternOff packs a (chunk, position) pair into a negative prodRef
// offset; decodeInternOff reverses it.
func encodeInternOff(chunk, pos int) int32 {
	return -int32(chunk<<internChunkShift|pos) - 1
}

func decodeInternOff(off int32) (chunk, pos int) {
	v := int(-off - 1)
	return v >> internChunkShift, v & (internChunkSize - 1)
}

// internSlice resolves a negative-off reference against the global pool.
func internSlice(off, n int32) []Sym {
	chunk, pos := decodeInternOff(off)
	cs := *internPool.chunks.Load()
	return cs[chunk][pos : pos+int(n) : pos+int(n)]
}

// internRun interns the pure-terminal run encoded by key (one byte per
// symbol; the caller guarantees every symbol is a non-marker terminal) and
// returns its global reference and whether the run was already there. Safe
// for concurrent use.
func internRun(key string) (prodRef, bool) {
	p := &internPool
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.idx == nil {
		p.idx = make(map[string]prodRef, 256)
	}
	if r, ok := p.idx[key]; ok {
		internStats.hits.Add(1)
		return r, true
	}
	return p.insertLocked(key), false
}

// internRunBytes is internRun for callers holding a reusable byte buffer:
// the hit path performs a map lookup with no string conversion; only the
// first sighting of a run pays for its permanent key.
func internRunBytes(key []byte) (prodRef, bool) {
	p := &internPool
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.idx == nil {
		p.idx = make(map[string]prodRef, 256)
	}
	if r, ok := p.idx[string(key)]; ok {
		internStats.hits.Add(1)
		return r, true
	}
	return p.insertLocked(string(key)), false
}

// insertLocked copies a new run into the shared slab and records its
// reference. Caller holds p.mu.
func (p *internArena) insertLocked(key string) prodRef {
	internStats.misses.Add(1)
	n := len(key)
	if p.cur == nil || p.fill+n > internChunkSize {
		// Publish a fresh full-length chunk via copy-on-write of the chunk
		// table. Chunks never move or grow after publication, so readers
		// only need the atomic table load; new symbols are written by index
		// before the reference that names them escapes the mutex.
		p.cur = make([]Sym, internChunkSize)
		p.fill = 0
		old := p.chunks.Load()
		var next [][]Sym
		if old != nil {
			next = append(next, *old...)
		}
		next = append(next, p.cur)
		p.curN = len(next)
		p.chunks.Store(&next)
	}
	pos := p.fill
	for i := 0; i < n; i++ {
		p.cur[pos+i] = Sym(key[i])
	}
	p.fill += n
	p.used += int64(n)
	r := prodRef{off: encodeInternOff(p.curN-1, pos), n: int32(n)}
	p.idx[key] = r
	return r
}

// ArenaStats is a snapshot of the arena substrate's allocator behavior.
type ArenaStats struct {
	// InternHits / InternMisses count global terminal-run intern probes: a
	// hit shares an existing slab region, a miss copies the run in once.
	InternHits, InternMisses int64
	// InternRuns is the number of distinct interned runs; InternSyms the
	// total symbols they occupy in the shared slab.
	InternRuns, InternSyms int64
}

// ArenaStatsSnapshot returns the cumulative process-wide arena census, which
// the daemon serves on /metrics and /debug/server. A page or a run reports
// the probes of its own grammars instead (Grammar.InternStats), so
// concurrent runs do not count each other's traffic.
func ArenaStatsSnapshot() ArenaStats {
	s := ArenaStats{
		InternHits:   internStats.hits.Load(),
		InternMisses: internStats.misses.Load(),
	}
	internPool.mu.Lock()
	s.InternRuns = int64(len(internPool.idx))
	s.InternSyms = internPool.used
	internPool.mu.Unlock()
	return s
}

// InternStats reports the intern-pool probes made while building g: a hit
// shared an existing region, a miss copied the run into the pool.
func (g *Grammar) InternStats() (hits, misses int64) { return g.internHits, g.internMisses }

// countIntern records one of g's intern-pool probes.
func (g *Grammar) countIntern(hit bool) {
	if hit {
		g.internHits++
	} else {
		g.internMisses++
	}
}

// SlabBytes reports the grammar's resident production storage in bytes: the
// symbol slab plus the production reference rows. Shared interned regions
// are global and not charged to any one grammar.
func (g *Grammar) SlabBytes() int64 {
	b := int64(cap(g.syms)) * 4
	for _, row := range g.refs {
		b += int64(cap(row)) * 8
	}
	return b
}
