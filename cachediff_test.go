package sqlciv

import (
	"reflect"
	"testing"

	"sqlciv/internal/analysis"
	"sqlciv/internal/core"
	"sqlciv/internal/corpus"
	"sqlciv/internal/policy"
	"sqlciv/internal/vcache"
)

// TestCompactionPreservesVerdictsOnCorpus is compaction's differential
// oracle: for every hotspot of every Table 1 subject, the default cascade
// over the compacted slice must produce bit-identical reports to the
// paper's marker construction, which runs every check over the uncompacted
// slice. Compaction is language- and label-preserving, and
// witnesses/derivability always run on the original slice, so any
// divergence is a compaction (or fast-path) bug.
func TestCompactionPreservesVerdictsOnCorpus(t *testing.T) {
	on := policy.New()
	off := policy.New()
	off.UseMarkerConstruction = true
	hotspots := 0
	for _, app := range corpus.Apps() {
		resolver := analysis.NewMapResolver(app.Sources)
		for _, entry := range app.Entries {
			ar, err := analysis.Analyze(resolver, entry, analysis.Options{})
			if err != nil {
				t.Fatalf("%s %s: %v", app.Name, entry, err)
			}
			for _, h := range ar.Hotspots {
				hotspots++
				got := on.CheckHotspot(ar.G, h.Root)
				want := off.CheckHotspot(ar.G, h.Root)
				if got.Verdict != want.Verdict {
					t.Errorf("%s %s:%d: verdict %v with compaction, %v on the marker reference",
						app.Name, h.File, h.Line, got.Verdict, want.Verdict)
				}
				if !reflect.DeepEqual(got.Reports, want.Reports) {
					t.Errorf("%s %s:%d: reports diverged\ncompacted: %+v\nreference: %+v",
						app.Name, h.File, h.Line, got.Reports, want.Reports)
				}
				if got.LabeledNTs != want.LabeledNTs {
					t.Errorf("%s %s:%d: labeled-NT census %d with compaction, %d on the marker reference",
						app.Name, h.File, h.Line, got.LabeledNTs, want.LabeledNTs)
				}
			}
		}
	}
	if hotspots == 0 {
		t.Fatal("corpus produced no hotspots")
	}
}

// TestWarmRunMatchesColdOnCorpus runs every Table 1 subject twice against
// one persistent verdict cache: the warm run must answer every check from
// disk and reproduce the cold run's findings exactly.
func TestWarmRunMatchesColdOnCorpus(t *testing.T) {
	for _, app := range corpus.Apps() {
		store, err := vcache.Open(t.TempDir())
		if err != nil {
			t.Fatalf("vcache.Open: %v", err)
		}
		opts := core.Options{VerdictCache: store}
		resolver := analysis.NewMapResolver(app.Sources)
		cold, err := core.AnalyzeApp(resolver, app.Entries, opts)
		if err != nil {
			t.Fatalf("%s cold: %v", app.Name, err)
		}
		if err := store.Flush(); err != nil {
			t.Fatalf("%s flush: %v", app.Name, err)
		}
		warm, err := core.AnalyzeApp(resolver, app.Entries, opts)
		if err != nil {
			t.Fatalf("%s warm: %v", app.Name, err)
		}
		if warm.DiskCacheHits == 0 || warm.DiskCacheMisses != 0 {
			t.Errorf("%s: warm run had %d disk hits, %d misses; want all hits",
				app.Name, warm.DiskCacheHits, warm.DiskCacheMisses)
		}
		if !reflect.DeepEqual(cold.Findings, warm.Findings) {
			t.Errorf("%s: warm findings diverged from cold\ncold: %+v\nwarm: %+v",
				app.Name, cold.Findings, warm.Findings)
		}
	}
}
