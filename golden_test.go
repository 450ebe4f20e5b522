package sqlciv

// Regenerate the corpus fingerprint after an intended analysis change with
//
//	go test -run TestCorpusGolden -update .

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sqlciv/internal/analysis"
	"sqlciv/internal/core"
	"sqlciv/internal/corpus"
	"sqlciv/internal/grammar"
	"sqlciv/internal/xss"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// corpusFingerprint renders everything the analysis decides about the Table 1
// corpus: per app the grammar census, per hotspot the canonical fingerprint
// of its query slice and of that slice's compacted form (the verdict-cache
// key), then every field of every SQLCIV and XSS finding.
func corpusFingerprint(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, app := range corpus.Apps() {
		resolver := analysis.NewMapResolver(app.Sources)
		res, err := core.AnalyzeApp(resolver, app.Entries, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		fmt.Fprintf(&b, "== %s |V|=%d |R|=%d\n", app.Name, res.NumNTs, res.NumProds)
		for _, page := range res.Pages {
			g := page.Analysis.G
			for _, h := range page.Hotspots {
				cg, _ := grammar.CompactSlice(g, h.Root, nil)
				fmt.Fprintf(&b, "hotspot %s %s:%d slice=%s compact=%s\n", page.Entry, h.File, h.Line,
					g.Fingerprint(h.Root).Hex(), cg.G.Fingerprint(cg.Top).Hex())
			}
		}
		for _, f := range res.Findings {
			fmt.Fprintf(&b, "sqlciv entry=%q file=%q line=%d call=%q check=%q label=%d witness=%q source=%q span=%d\n",
				f.Entry, f.File, f.Line, f.Call, f.Check.String(), f.Label, f.Witness, f.Source, f.SpanID)
		}
		xf, err := xss.Audit(resolver, app.Entries, analysis.Options{})
		if err != nil {
			t.Fatalf("%s xss: %v", app.Name, err)
		}
		for _, f := range xf {
			fmt.Fprintf(&b, "xss entry=%q check=%q label=%d witness=%q\n",
				f.Entry, f.Check.String(), f.Label, f.Witness)
		}
	}
	return b.String()
}

// TestCorpusGolden pins the whole analysis to a committed fingerprint of the
// corpus: grammar sizes, every hotspot slice's canonical hash before and
// after compaction, and every finding field. A refactor that claims to
// change no behavior must leave testdata/corpus_golden.txt byte-identical.
func TestCorpusGolden(t *testing.T) {
	got := corpusFingerprint(t)
	path := filepath.Join("testdata", "corpus_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run `go test -run TestCorpusGolden -update .`): %v", path, err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s drifted at line %d:\nwant: %s\ngot:  %s", path, i+1, w, g)
			}
		}
	}
}
