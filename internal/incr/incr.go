// Package incr is the content-hash dependency layer under incremental
// re-analysis. The verdict cache (internal/vcache) already made phase 2
// content-addressed at the hotspot-slice level; this package pushes the same
// discipline up the pipeline to phase 1, build-system style:
//
//   - Every source file is identified by the SHA-256 of its bytes. A
//     Snapshot hashes one project state; hashes, not mtimes, decide
//     staleness, so touching a file without changing it recomputes nothing.
//   - A Recorder wraps the resolver during one page's analysis and records
//     the page's true dependency closure: every Load the analyzer attempted
//     (present files by content hash, absent ones as missing — a file
//     appearing where an include previously failed is a real change), plus
//     whether the page consulted the project layout for a dynamic include.
//   - Validate replays that closure against a new Snapshot: a page whose
//     every dependency is byte-identical (and whose layout, if it mattered,
//     is unchanged) must produce byte-identical analysis results, so its
//     prior outcome can be replayed without re-parsing, re-lowering, or
//     re-checking anything.
//
// Pages that do recompute still reuse parse trees: a session's runs load
// through one analysis.ParseCache, which re-parses only the files whose
// content changed.
//
// Page summaries (summary.go) extend the reuse across process restarts.
// They are records in a vcache.Store, with its corruption discipline:
// anything unreadable, truncated, stale, or version-mismatched is a miss —
// a bad store can cost time, never findings.
package incr

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"sort"

	"sqlciv/internal/analysis"
	"sqlciv/internal/php"
)

// Hash is the SHA-256 of one file's bytes.
type Hash [sha256.Size]byte

// HashBytes hashes one source file's contents.
func HashBytes(src string) Hash { return sha256.Sum256([]byte(src)) }

// Hex renders the hash for storage and diagnostics.
func (h Hash) Hex() string { return hex.EncodeToString(h[:]) }

// MarshalText renders the hash as hex, its form in stored summaries.
func (h Hash) MarshalText() ([]byte, error) { return []byte(h.Hex()), nil }

// UnmarshalText decodes a stored hash; anything malformed is an error.
func (h *Hash) UnmarshalText(b []byte) error {
	v, ok := ParseHex(string(b))
	if !ok {
		return errors.New("incr: malformed hash")
	}
	*h = v
	return nil
}

// ParseHex decodes a stored hash; reports false on anything malformed.
func ParseHex(s string) (Hash, bool) {
	var h Hash
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(h) {
		return Hash{}, false
	}
	copy(h[:], b)
	return h, true
}

// Dep is one recorded dependency of a page analysis: a path the analyzer
// asked the resolver for. Present files carry their content hash; Missing
// marks a path that did not exist when recorded (the load's failure is part
// of the analysis result — the file appearing later is a change).
type Dep struct {
	Path    string `json:"path"`
	Hash    Hash   `json:"hash"`
	Missing bool   `json:"missing,omitempty"`
}

// Snapshot is the hashed state of one project: path → content hash, plus a
// hash of the sorted path layout (what dynamic includes resolve against).
type Snapshot struct {
	hashes map[string]Hash
	layout Hash
}

// NewSnapshot hashes every source file.
func NewSnapshot(sources map[string]string) *Snapshot {
	s := &Snapshot{hashes: make(map[string]Hash, len(sources))}
	paths := make([]string, 0, len(sources))
	for p := range sources {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	lh := sha256.New()
	for _, p := range paths {
		s.hashes[p] = HashBytes(sources[p])
		lh.Write([]byte(p))
		lh.Write([]byte{0})
	}
	lh.Sum(s.layout[:0])
	return s
}

// Files counts the hashed files.
func (s *Snapshot) Files() int { return len(s.hashes) }

// Layout is the hash of the sorted path list — the part of the project a
// dynamic include depends on beyond the files it actually loads.
func (s *Snapshot) Layout() Hash { return s.layout }

// Digest hashes the whole project state — every path with its content hash,
// in sorted order. Two snapshots with equal digests are byte-identical
// projects; watch mode uses this to decide whether anything changed at all.
func (s *Snapshot) Digest() Hash {
	paths := make([]string, 0, len(s.hashes))
	for p := range s.hashes {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	d := sha256.New()
	for _, p := range paths {
		d.Write([]byte(p))
		d.Write([]byte{0})
		h := s.hashes[p]
		d.Write(h[:])
	}
	var out Hash
	d.Sum(out[:0])
	return out
}

// Hash returns the content hash of path, if present.
func (s *Snapshot) Hash(path string) (Hash, bool) {
	h, ok := s.hashes[path]
	return h, ok
}

// Validate reports whether a dependency closure recorded by an earlier run
// is still byte-identical under this snapshot: every present dependency
// unchanged, every missing one still missing, and — when the page resolved a
// dynamic include — the project layout unchanged. A true result means the
// prior analysis of that page is exactly reusable.
func (s *Snapshot) Validate(deps []Dep, dynamic bool, layout Hash) bool {
	if dynamic && s.layout != layout {
		return false
	}
	for _, d := range deps {
		cur, ok := s.hashes[d.Path]
		if d.Missing {
			if ok {
				return false
			}
			continue
		}
		if !ok || cur != d.Hash {
			return false
		}
	}
	return true
}

// Recorder wraps a resolver for the duration of ONE page analysis and
// records the page's dependency closure, by content hash under the run's
// Snapshot. Page analysis is single-threaded, and each page gets its own
// Recorder, so no locking is needed.
type Recorder struct {
	r       analysis.Resolver
	snap    *Snapshot
	deps    map[string]Dep
	dynamic bool
}

// NewRecorder returns a recorder delegating to r, whose sources snap hashed.
func NewRecorder(r analysis.Resolver, snap *Snapshot) *Recorder {
	return &Recorder{r: r, snap: snap, deps: map[string]Dep{}}
}

// Load records the dependency (by content identity, success or not) and
// delegates.
func (rec *Recorder) Load(path string) (*php.File, bool) {
	if _, seen := rec.deps[path]; !seen {
		if h, ok := rec.snap.Hash(path); ok {
			rec.deps[path] = Dep{Path: path, Hash: h}
		} else {
			rec.deps[path] = Dep{Path: path, Missing: true}
		}
	}
	return rec.r.Load(path)
}

// Files marks the page as layout-dependent (it resolved a dynamic include
// against the project file list) and delegates.
func (rec *Recorder) Files() []string {
	rec.dynamic = true
	return rec.r.Files()
}

// Deps returns the recorded closure, sorted by path.
func (rec *Recorder) Deps() []Dep {
	out := make([]Dep, 0, len(rec.deps))
	for _, d := range rec.deps {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Dynamic reports whether the page consulted the project layout.
func (rec *Recorder) Dynamic() bool { return rec.dynamic }
