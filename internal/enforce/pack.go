package enforce

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"sqlciv/internal/automata"
)

// Policy pack binary layout (version 1, all integers little-endian):
//
//	header (64 bytes)
//	  [ 0: 8)  magic "SQLCIVP\x01"
//	  [ 8:12)  u32 format version (1)
//	  [12:16)  u32 byte-order sentinel 0x01020304 — a pack written on a
//	           big-endian host without byte-swapping reads back as
//	           0x04030201 and is rejected instead of mis-walked
//	  [16:24)  u64 total file size
//	  [24:32)  u64 FNV-1a/64 checksum of everything after the header
//	  [32:36)  u32 hotspot count
//	  [36:64)  reserved, zero
//	index (count × 48-byte records, sorted by key bytes ascending)
//	  [ 0: 4)  u32 key offset        [ 4: 8)  u32 key length
//	  [ 8:12)  u32 flags             [12:16)  u32 numStates
//	  [16:20)  u32 numClasses        [20:24)  u32 start state
//	  [24:28)  u32 class-table off   [28:32)  u32 accept-bitmap off
//	  [32:36)  u32 accept-bitmap len [36:40)  u32 slab off
//	  [40:44)  u32 slab len          [44:48)  u32 reserved, zero
//	sections (keys, 256-byte class tables, accept bitmaps, 4-byte-aligned
//	int32 transition slabs), all offsets absolute from file start
//
// The slab is the DFA's numStates × numClasses transition matrix
// (trans[s*numClasses+cls] = target). Automata are complete, so every
// stored target is a valid state id in [0, numStates); the loader verifies
// that, which is what lets the matcher walk the slab with no per-step
// bounds reasoning beyond the slice length.
const (
	packMagic    = "SQLCIVP\x01"
	packVersion  = 1
	packSentinel = 0x01020304
	headerSize   = 64
	recordSize   = 48
)

// Hotspot entry flags.
const (
	// FlagVerified marks hotspots the static cascade fully verified
	// (policy.VerdictVerified on every constituent page).
	FlagVerified = 1 << 0
	// FlagUnavailable marks hotspots whose enforcement automaton could not
	// be compiled (approximation caps exceeded, or the hotspot's page
	// degraded before phase 1 finished). The matcher fails closed: every
	// query against such a hotspot is reported outside the language.
	FlagUnavailable = 1 << 1

	flagsKnown = FlagVerified | FlagUnavailable
)

// BuildEntry is one hotspot's contribution to a pack. A nil Automaton
// records the hotspot as unavailable (fail closed at runtime).
type BuildEntry struct {
	// Key identifies the hotspot; the analyzer uses "file:line".
	Key       string
	Automaton *automata.DFA
	Verified  bool
}

// CompileStats summarizes a compiled pack.
type CompileStats struct {
	Hotspots    int `json:"hotspots"`
	Unavailable int `json:"unavailable"`
	Verified    int `json:"verified"`
	States      int `json:"states"`
	SlabBytes   int `json:"slab_bytes"`
	PackBytes   int `json:"pack_bytes"`
}

// Compile serializes the entries into a policy pack. Entries are sorted by
// key; duplicate keys and incomplete automata are errors (the analyzer's
// determinize/minimize pipeline only produces complete automata, so an
// incomplete one here is a caller bug, not a runtime condition).
func Compile(entries []BuildEntry) ([]byte, CompileStats, error) {
	var stats CompileStats
	es := append([]BuildEntry(nil), entries...)
	sort.Slice(es, func(i, j int) bool { return es[i].Key < es[j].Key })
	for i, e := range es {
		if i > 0 && es[i-1].Key == e.Key {
			return nil, stats, fmt.Errorf("enforce: duplicate hotspot key %q", e.Key)
		}
		if c := e.Automaton; c != nil {
			if c.NumStates() == 0 {
				return nil, stats, fmt.Errorf("enforce: hotspot %q: empty automaton", e.Key)
			}
			if c.NumClasses() > 256 {
				return nil, stats, fmt.Errorf("enforce: hotspot %q: %d byte classes exceed the one-byte class table", e.Key, c.NumClasses())
			}
			for s := 0; s < c.NumStates(); s++ {
				for cls := 0; cls < c.NumClasses(); cls++ {
					if t := c.StepClass(s, cls); t < 0 || t >= c.NumStates() {
						return nil, stats, fmt.Errorf("enforce: hotspot %q: incomplete automaton (state %d class %d)", e.Key, s, cls)
					}
				}
			}
		}
	}

	// Lay out sections, then fill.
	type layout struct {
		keyOff, classOff, acceptOff, acceptLen, slabOff, slabLen int
	}
	lays := make([]layout, len(es))
	off := headerSize + recordSize*len(es)
	for i, e := range es {
		lays[i].keyOff = off
		off += len(e.Key)
	}
	for i, e := range es {
		if e.Automaton == nil {
			continue
		}
		lays[i].classOff = off
		off += 256
	}
	for i, e := range es {
		c := e.Automaton
		if c == nil {
			continue
		}
		lays[i].acceptOff = off
		lays[i].acceptLen = (c.NumStates() + 7) / 8
		off += lays[i].acceptLen
	}
	off = (off + 3) &^ 3
	for i, e := range es {
		c := e.Automaton
		if c == nil {
			continue
		}
		lays[i].slabOff = off
		lays[i].slabLen = c.NumStates() * c.NumClasses() * 4
		off += lays[i].slabLen
	}
	data := make([]byte, off)

	copy(data, packMagic)
	le := binary.LittleEndian
	le.PutUint32(data[8:], packVersion)
	le.PutUint32(data[12:], packSentinel)
	le.PutUint64(data[16:], uint64(len(data)))
	le.PutUint32(data[32:], uint32(len(es)))

	for i, e := range es {
		rec := data[headerSize+i*recordSize:]
		l := lays[i]
		flags := uint32(0)
		if e.Verified {
			flags |= FlagVerified
			stats.Verified++
		}
		c := e.Automaton
		if c == nil {
			flags |= FlagUnavailable
			stats.Unavailable++
		}
		le.PutUint32(rec[0:], uint32(l.keyOff))
		le.PutUint32(rec[4:], uint32(len(e.Key)))
		le.PutUint32(rec[8:], flags)
		copy(data[l.keyOff:], e.Key)
		if c == nil {
			continue
		}
		le.PutUint32(rec[12:], uint32(c.NumStates()))
		le.PutUint32(rec[16:], uint32(c.NumClasses()))
		le.PutUint32(rec[20:], uint32(c.Start()))
		le.PutUint32(rec[24:], uint32(l.classOff))
		le.PutUint32(rec[28:], uint32(l.acceptOff))
		le.PutUint32(rec[32:], uint32(l.acceptLen))
		le.PutUint32(rec[36:], uint32(l.slabOff))
		le.PutUint32(rec[40:], uint32(l.slabLen))
		for b := 0; b < 256; b++ {
			data[l.classOff+b] = byte(c.ClassOf(b))
		}
		for s := 0; s < c.NumStates(); s++ {
			if c.IsAccept(s) {
				data[l.acceptOff+s/8] |= 1 << (s % 8)
			}
		}
		nc := c.NumClasses()
		for s := 0; s < c.NumStates(); s++ {
			for cls := 0; cls < nc; cls++ {
				le.PutUint32(data[l.slabOff+(s*nc+cls)*4:], uint32(c.StepClass(s, cls)))
			}
		}
		stats.States += c.NumStates()
		stats.SlabBytes += l.slabLen
	}
	le.PutUint64(data[24:], checksum(data[headerSize:]))
	stats.Hotspots = len(es)
	stats.PackBytes = len(data)
	return data, stats, nil
}

func checksum(payload []byte) uint64 {
	h := fnv.New64a()
	h.Write(payload)
	return h.Sum64()
}

// rehash recomputes the header checksum and size fields in place; the
// corruption tests use it to reach the structural validators behind the
// checksum gate.
func rehash(data []byte) {
	if len(data) < headerSize {
		return
	}
	binary.LittleEndian.PutUint64(data[16:], uint64(len(data)))
	binary.LittleEndian.PutUint64(data[24:], checksum(data[headerSize:]))
}
