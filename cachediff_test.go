package sqlciv

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
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
// divergence is a compaction (or fast-path) bug. Each check runs on a fresh
// checker, so neither side answers from a memoized verdict.
func TestCompactionPreservesVerdictsOnCorpus(t *testing.T) {
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
				got := policy.New().CheckHotspot(ar.G, h.Root)
				ref := policy.New()
				ref.UseMarkerConstruction = true
				want := ref.CheckHotspot(ar.G, h.Root)
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

// TestRetaggedCacheIsRewritten is a policy-version bump on a warm cache:
// every entry is retagged as if an older checker had written it. The next
// run must miss each one and recompute it, and its Flush must replace the
// stale files, so the run after that answers every checked hotspot from
// disk with the cold run's findings.
func TestRetaggedCacheIsRewritten(t *testing.T) {
	for _, app := range corpus.Apps() {
		dir := t.TempDir()
		store, err := vcache.Open(dir)
		if err != nil {
			t.Fatalf("vcache.Open: %v", err)
		}
		opts := core.Options{VerdictCache: store}
		resolver := analysis.NewMapResolver(app.Sources)
		run := func(label string) *core.AppResult {
			res, err := core.AnalyzeApp(resolver, app.Entries, opts)
			if err != nil {
				t.Fatalf("%s %s: %v", app.Name, label, err)
			}
			if err := store.Flush(); err != nil {
				t.Fatalf("%s %s flush: %v", app.Name, label, err)
			}
			return res
		}
		cold := run("cold")

		current := `"tag":"` + policy.CacheVersion + `"`
		retagged := 0
		if err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".json") {
				return err
			}
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			old := strings.Replace(string(data), current, `"tag":"sqlciv-policy-v0"`, 1)
			if old == string(data) {
				t.Fatalf("%s: %s has no %s", app.Name, p, current)
			}
			retagged++
			return os.WriteFile(p, []byte(old), 0o644)
		}); err != nil {
			t.Fatalf("%s: retagging: %v", app.Name, err)
		}
		if retagged == 0 {
			t.Fatalf("%s: cold run wrote no entries", app.Name)
		}

		stale := run("stale")
		if stale.DiskCacheHits != 0 || stale.DiskCacheMisses == 0 {
			t.Errorf("%s: run over retagged entries had %d disk hits, %d misses; want all misses",
				app.Name, stale.DiskCacheHits, stale.DiskCacheMisses)
		}
		warm := run("warm")
		if warm.DiskCacheMisses != 0 || warm.DiskCacheHits != stale.DiskCacheMisses {
			t.Errorf("%s: run after the rewrite had %d disk hits, %d misses; want %d hits, no misses",
				app.Name, warm.DiskCacheHits, warm.DiskCacheMisses, stale.DiskCacheMisses)
		}
		if !reflect.DeepEqual(cold.Findings, warm.Findings) {
			t.Errorf("%s: findings after the rewrite diverged from cold\ncold: %+v\nwarm: %+v",
				app.Name, cold.Findings, warm.Findings)
		}
	}
}
