// Package vcache is the one on-disk record store behind the analysis
// memos. It holds two kinds of record, each kind in its own Store:
//
//   - Hotspot verdicts (Entry), keyed by the slice key (grammar.SliceKey) of
//     a hotspot's query-grammar slice and tagged with the policy version, so
//     repeat analyses of unchanged pages skip the check cascade, and
//     compaction, across process runs. An entry holds the verdict and the
//     slice census a cold check of that exact slice computes.
//   - Incremental page summaries (internal/incr), keyed by the SHA-256 of
//     the entry path and tagged with the policy version and the analysis
//     options.
//
// Both kinds embed one verdict record (VerdictRecord) and one slice census
// (SliceCensus), each with one validity check. The store is crash- and
// corruption-tolerant rather than transactional:
//
//   - One file per record under <dir>/<aa>/<hex key>.json (aa = first key
//     byte), written via temp file + rename, so readers never observe a
//     partial record.
//   - Load vets a decoded record with the caller's check before trusting
//     it; anything unreadable, truncated, corrupt, stale, or
//     version-mismatched is reported as a miss (and counted on
//     Stats().Errors). A bad store can cost time, never findings.
//   - Save buffers records in memory; Flush (or Close) writes them out.
//     Pending records are deliberately invisible to Load, so the verdicts a
//     cold run computes can never depend on which hotspot reached the store
//     first. When two records are saved under one key before a Flush, the
//     smaller serialization is kept, so what is flushed is
//     schedule-independent too.
//   - Flush replaces whatever file holds a key. A record that a read
//     rejected (a stale tag, corrupt bytes) is therefore rewritten by the
//     next run that recomputes it.
//
// Verdict invalidation is content-addressed: editing a page changes its
// query grammars, which changes their slice keys, which misses the store;
// old entries are simply never read again. Changing the checker (new attack
// patterns, new cascade logic) must bump the policy tag: every old entry
// then misses once, and the run that recomputes it writes it back under the
// new tag. Changing what the key hashes leaves every old entry under a key
// no lookup reaches: orphaned, never read again. Summaries are keyed by
// location, so the newest analysis of a page replaces the old one.
package vcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"sqlciv/internal/grammar"
)

// FormatVersion is the on-disk entry schema version; entries written by a
// different schema are ignored.
const FormatVersion = 1

// Entry is one cached hotspot verdict and the census of the slice it
// answers for. FP is the hex slice key the entry was stored under.
type Entry struct {
	Format int    `json:"format"`
	Tag    string `json:"tag"`
	FP     string `json:"fp"`
	VerdictRecord
	SliceCensus
}

// VerdictRecord is one hotspot's persisted verdict, embedded by the verdict
// cache's Entry and by each hotspot of a page summary. Report fields mirror
// policy.Report structurally (the policy package converts), keeping this
// package free of a dependency cycle.
type VerdictRecord struct {
	Verdict string `json:"verdict"` // "verified" or "vulnerable"
	// LabeledNTs is the number of labeled nonterminals the cascade examined.
	LabeledNTs int      `json:"labeled_nts"`
	Reports    []Report `json:"reports,omitempty"`
}

// SliceCensus is the size of one hotspot check's query-grammar slice: the
// |V| / |R| of the slice reachable from the hotspot's root and of the
// compacted grammar the cascade's fixpoints ran over. Verdict entries embed
// it, and page summaries through policy.Census, so a replayed hotspot
// reports the census of the check that computed it.
type SliceCensus struct {
	SliceNTs     int `json:"slice_nts"`
	SliceProds   int `json:"slice_prods"`
	CompactNTs   int `json:"compact_nts"`
	CompactProds int `json:"compact_prods"`
}

// Valid reports whether every count of c is non-negative.
func (c *SliceCensus) Valid() bool {
	return c.SliceNTs >= 0 && c.SliceProds >= 0 && c.CompactNTs >= 0 && c.CompactProds >= 0
}

// Report is one persisted policy report. Entries written before the
// write-only "nt" key was dropped still decode: the key is ignored.
type Report struct {
	Label   uint8  `json:"label"`
	Check   int    `json:"check"`
	Witness string `json:"witness"`
	Source  string `json:"source,omitempty"`
}

// Valid reports whether v is a verdict a completed cascade can produce:
// verified with no reports, or vulnerable with reports from the cascade
// checks (policy.CheckUnconfinableQuotes through CheckNotDerivable, 1-4).
// An unknown verdict is never stored: a degraded check could succeed on
// retry, so replaying it would freeze a transient failure into the findings.
func (v *VerdictRecord) Valid() bool {
	switch v.Verdict {
	case "verified":
		if len(v.Reports) != 0 {
			return false
		}
	case "vulnerable":
		if len(v.Reports) == 0 {
			return false
		}
	default:
		return false
	}
	if v.LabeledNTs < 0 {
		return false
	}
	for _, r := range v.Reports {
		if r.Check < 1 || r.Check > 4 {
			return false
		}
	}
	return true
}

// Key names one record: its file is <dir>/<aa>/<hex key>.json.
type Key [sha256.Size]byte

// Stats is a snapshot of a store's traffic counters.
type Stats struct {
	Hits    int64 // Load found a valid record
	Misses  int64 // Load found nothing usable
	Errors  int64 // unreadable/invalid records encountered (subset of Misses)
	Puts    int64 // records buffered
	Written int64 // records flushed to disk
}

// Store is a record store rooted at one directory. All methods are safe for
// concurrent use and safe on a nil receiver (nil = persistence disabled:
// every read misses, Save and Flush do nothing).
type Store struct {
	dir string

	mu      sync.Mutex
	pending map[Key][]byte // serialized records awaiting Flush

	hits, misses, errs, puts, written atomic.Int64
}

// DefaultDir returns the default directory of the store called name,
// <os.UserCacheDir()>/sqlciv/<name>.
func DefaultDir(name string) (string, error) {
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("vcache: no user cache dir: %w", err)
	}
	return filepath.Join(base, "sqlciv", name), nil
}

// Open returns a Store rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("vcache: %w", err)
	}
	return &Store{dir: dir, pending: map[Key][]byte{}}, nil
}

// Dir returns the store's root directory ("" on a nil store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// path returns the record file for k.
func (s *Store) path(k Key) string {
	hx := hex.EncodeToString(k[:])
	return filepath.Join(s.dir, hx[:2], hx+".json")
}

// Lookup is what Load found under a key.
type Lookup uint8

const (
	Absent   Lookup = iota // no record under the key, or a nil store
	Found                  // a usable record, decoded into rec
	Rejected               // a record that could not be read, decoded, or validated
)

// Load decodes the on-disk record under k into rec (a pointer) and reports
// what it found. A record is usable when the file exists, decodes, and
// valid — which inspects rec — accepts it. Records buffered by Save but not
// yet flushed are not visible. Anything but a usable record counts as a
// miss, and everything but a missing file as an error too.
func (s *Store) Load(k Key, rec any, valid func() bool) Lookup {
	if s == nil {
		return Absent
	}
	data, err := os.ReadFile(s.path(k))
	if errors.Is(err, os.ErrNotExist) {
		s.misses.Add(1)
		return Absent
	}
	if err != nil || json.Unmarshal(data, rec) != nil || !valid() {
		s.errs.Add(1)
		s.misses.Add(1)
		return Rejected
	}
	s.hits.Add(1)
	return Found
}

// Save buffers rec under k until the next Flush. When two records are saved
// under one key before that Flush (two hotspots with one slice, which hold
// the same verdict record, or one page analyzed twice), the
// lexicographically smaller serialization is kept, independent of arrival
// order.
func (s *Store) Save(k Key, rec any) {
	if s == nil {
		return
	}
	data, err := json.Marshal(rec)
	if err != nil {
		s.errs.Add(1)
		return
	}
	s.puts.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.pending[k]; ok && string(prev) <= string(data) {
		return
	}
	s.pending[k] = data
}

// Get returns the valid on-disk verdict entry for (key, tag), if any, where
// key is a slice key. Any invalid entry — wrong schema version, wrong tag
// (stale policy), wrong embedded key (renamed or corrupted file), malformed
// JSON, out-of-range fields — counts as a miss.
func (s *Store) Get(key grammar.Fingerprint, tag string) (*Entry, bool) {
	e := new(Entry)
	if s.Load(Key(key), e, func() bool {
		return e.Format == FormatVersion && e.Tag == tag && e.FP == key.Hex() &&
			e.VerdictRecord.Valid() && e.SliceCensus.Valid()
	}) != Found {
		return nil, false
	}
	return e, true
}

// Put buffers a verdict entry under the slice key key. The entry's identity
// fields (Format, Tag, FP) are filled in here.
func (s *Store) Put(key grammar.Fingerprint, tag string, e *Entry) {
	if s == nil || e == nil {
		return
	}
	e.Format, e.Tag, e.FP = FormatVersion, tag, key.Hex()
	s.Save(Key(key), e)
}

// Flush writes every pending record to disk via temp file + rename,
// replacing whatever file held its key. The pending buffer is cleared even
// on error; the first error is returned.
func (s *Store) Flush() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	pending := s.pending
	s.pending = map[Key][]byte{}
	s.mu.Unlock()
	var first error
	for k, data := range pending {
		if err := s.write(k, data); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (s *Store) write(k Key, data []byte) error {
	path := s.path(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("vcache: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("vcache: %w", err)
	}
	_, werr := tmp.Write(append(data, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("vcache: writing %s: %w", path, errors.Join(werr, cerr))
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("vcache: %w", err)
	}
	s.written.Add(1)
	return nil
}

// Close flushes pending records.
func (s *Store) Close() error { return s.Flush() }

// CacheStats returns a snapshot of the store's counters.
func (s *Store) CacheStats() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
		Errors:  s.errs.Load(),
		Puts:    s.puts.Load(),
		Written: s.written.Load(),
	}
}
