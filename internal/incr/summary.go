package incr

import (
	"crypto/sha256"

	"sqlciv/internal/policy"
	"sqlciv/internal/vcache"
)

// FormatVersion is the on-disk page-summary schema version; summaries
// written by a different schema are ignored. Bump it whenever PageSummary's
// shape or meaning changes — the same discipline as vcache.FormatVersion.
const FormatVersion = 1

// PageSummary is one page's persisted analysis outcome: the dependency
// closure that makes it valid, and everything core needs to replay the
// page's findings and census byte-identically without re-running either
// phase. Degraded pages and pages with any analysis-incomplete hotspot are
// never summarized (a retry could succeed — same rule as the verdict cache).
type PageSummary struct {
	Format int    `json:"format"`
	Tag    string `json:"tag"` // policy version + analysis-options tag
	Entry  string `json:"entry"`

	// Deps is the recorded include closure; Dynamic marks a page that
	// resolved a dynamic include against the project layout, whose sorted
	// path list hashed to Layout at record time.
	Deps    []Dep `json:"deps"`
	Dynamic bool  `json:"dynamic,omitempty"`
	Layout  Hash  `json:"layout"`

	// Phase 1 census, summed into the app result on replay.
	AnalysisTimeNS int64 `json:"analysis_time_ns"`
	NumNTs         int   `json:"num_nts"`
	NumProds       int   `json:"num_prods"`

	Hotspots []HotspotSummary `json:"hotspots,omitempty"`
}

// HotspotSummary is one hotspot's persisted verdict and check census.
type HotspotSummary struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Call string `json:"call"`
	vcache.VerdictRecord
	policy.Census
}

// Open returns the page-summary store rooted at dir. Summaries are keyed by
// location (the entry path), so an edited page's summary is superseded, not
// orphaned: the newest analysis replaces the old one on Flush.
func Open(dir string) (*vcache.Store, error) { return vcache.Open(dir) }

// key names entry's summary record.
func key(entry string) vcache.Key { return sha256.Sum256([]byte(entry)) }

// Get returns the valid on-disk summary for (entry, tag), if any, and what
// the store found. Any invalid summary — wrong schema version, wrong tag
// (stale policy or analysis options), wrong embedded entry (renamed or
// corrupted file), malformed JSON or hashes, out-of-range fields — is
// Rejected, a miss.
func Get(s *vcache.Store, entry, tag string) (*PageSummary, vcache.Lookup) {
	ps := new(PageSummary)
	look := s.Load(key(entry), ps, func() bool { return ps.valid(entry, tag) })
	if look != vcache.Found {
		return nil, look
	}
	return ps, look
}

// Put buffers a summary for its entry. The identity fields (Format, Tag) are
// filled in here; ps.Entry must already be set.
func Put(s *vcache.Store, tag string, ps *PageSummary) {
	ps.Format, ps.Tag = FormatVersion, tag
	s.Save(key(ps.Entry), ps)
}

// valid vets a decoded summary against its expected identity and value
// ranges.
func (ps *PageSummary) valid(entry, tag string) bool {
	if ps.Format != FormatVersion || ps.Tag != tag || ps.Entry != entry {
		return false
	}
	if ps.AnalysisTimeNS < 0 || ps.NumNTs < 0 || ps.NumProds < 0 {
		return false
	}
	if ps.Dynamic && ps.Layout == (Hash{}) {
		return false
	}
	for _, d := range ps.Deps {
		if d.Path == "" {
			return false
		}
	}
	for i := range ps.Hotspots {
		h := &ps.Hotspots[i]
		if !h.VerdictRecord.Valid() || !h.SliceCensus.Valid() || h.CheckTime < 0 || h.Line <= 0 {
			return false
		}
	}
	return true
}
