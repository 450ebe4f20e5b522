package core

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sqlciv/internal/analysis"
	"sqlciv/internal/corpus"
	"sqlciv/internal/enforce"
	"sqlciv/internal/incr"
)

// goldenPackSHAs reads the per-app pack digests pinned by the root
// package's TestPackGolden ("== <app> sha256=<hex>" lines).
func goldenPackSHAs(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "pack_golden.txt"))
	if err != nil {
		t.Fatalf("read pack golden: %v", err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "== "); ok {
			name, sha, _ := strings.Cut(rest, " sha256=")
			out[name] = sha
		}
	}
	return out
}

// TestPackFromReplayedPages builds packs from every way a page can reach
// pack compilation in an incremental session. A cold run and a memory
// replay in the same session (the daemon's path) emit the golden pack. A
// replay from the summary store in a fresh session (the path of a second
// `sqlcheck -incremental -emit-pack`) carries no grammar, so it must yield a
// loadable pack with the same hotspots and verified flags, every one
// unavailable — failing closed instead of reaching the approximation.
func TestPackFromReplayedPages(t *testing.T) {
	golden := goldenPackSHAs(t)
	for _, app := range corpus.Apps() {
		store, err := incr.Open(t.TempDir())
		if err != nil {
			t.Fatalf("incr.Open: %v", err)
		}
		run := func(ses *Session) *AppResult {
			res, err := AnalyzeApp(analysis.NewMapResolver(app.Sources), app.Entries, Options{Session: ses})
			if err != nil {
				t.Fatalf("%s: AnalyzeApp: %v", app.Name, err)
			}
			return res
		}
		build := func(res *AppResult) ([]byte, *enforce.Pack) {
			data, _, err := BuildPack(res, PackOptions{})
			if err != nil {
				t.Fatalf("%s: BuildPack: %v", app.Name, err)
			}
			pack, err := enforce.Load(data)
			if err != nil {
				t.Fatalf("%s: Load: %v", app.Name, err)
			}
			return data, pack
		}

		ses := NewSession(SessionConfig{Summaries: store})
		coldData, coldPack := build(run(ses))
		if got := fmt.Sprintf("%x", sha256.Sum256(coldData)); got != golden[app.Name] {
			t.Fatalf("%s: cold pack sha256=%s, golden %s", app.Name, got, golden[app.Name])
		}
		if err := store.Flush(); err != nil {
			t.Fatalf("%s: flush: %v", app.Name, err)
		}

		mem := run(ses)
		if mem.Incr.PagesReplayed != int64(len(app.Entries)) {
			t.Fatalf("%s: memory replay replayed %d of %d pages", app.Name, mem.Incr.PagesReplayed, len(app.Entries))
		}
		if memData, _ := build(mem); string(memData) != string(coldData) {
			t.Errorf("%s: memory-replay pack differs from the cold pack", app.Name)
		}

		stored := run(NewSession(SessionConfig{Summaries: store}))
		if stored.Incr.SummaryHits != int64(len(app.Entries)) {
			t.Fatalf("%s: store replay hit %d of %d summaries", app.Name, stored.Incr.SummaryHits, len(app.Entries))
		}
		_, pack := build(stored)
		keys := pack.Keys()
		if strings.Join(keys, ",") != strings.Join(coldPack.Keys(), ",") {
			t.Fatalf("%s: store-replay pack keys %v, cold %v", app.Name, keys, coldPack.Keys())
		}
		for _, key := range keys {
			m, _ := pack.Hotspot(key)
			c, _ := coldPack.Hotspot(key)
			if m.Available() || m.Verified() != c.Verified() {
				t.Errorf("%s: replayed hotspot %s available=%v verified=%v; want unavailable, verified=%v",
					app.Name, key, m.Available(), m.Verified(), c.Verified())
			}
		}
	}
}
