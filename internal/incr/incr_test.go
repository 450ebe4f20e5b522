package incr

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sqlciv/internal/analysis"
	"sqlciv/internal/policy"
	"sqlciv/internal/vcache"
)

const tag = "incr-test-v1"

// ---- snapshot / dependency validation --------------------------------------

func TestSnapshotValidate(t *testing.T) {
	sources := map[string]string{
		"a.php": "<?php echo 1;",
		"b.php": "<?php echo 2;",
	}
	snap := NewSnapshot(sources)
	if snap.Files() != 2 {
		t.Fatalf("Files() = %d", snap.Files())
	}
	deps := []Dep{
		{Path: "a.php", Hash: HashBytes(sources["a.php"])},
		{Path: "gone.php", Missing: true},
	}
	if !snap.Validate(deps, false, Hash{}) {
		t.Fatal("unchanged closure rejected")
	}

	// Content edit invalidates.
	edited := map[string]string{"a.php": "<?php echo 3;", "b.php": sources["b.php"]}
	if NewSnapshot(edited).Validate(deps, false, Hash{}) {
		t.Fatal("edited dependency accepted")
	}
	// A missing dependency appearing invalidates: the recorded analysis saw
	// the include fail.
	appeared := map[string]string{"a.php": sources["a.php"], "b.php": sources["b.php"], "gone.php": "<?php"}
	if NewSnapshot(appeared).Validate(deps, false, Hash{}) {
		t.Fatal("appeared dependency accepted")
	}
	// A present dependency disappearing invalidates.
	removed := map[string]string{"a.php": sources["a.php"]}
	if NewSnapshot(removed).Validate([]Dep{deps[0], {Path: "b.php", Hash: HashBytes(sources["b.php"])}}, false, Hash{}) {
		t.Fatal("removed dependency accepted")
	}
}

func TestSnapshotLayoutGatesDynamicPages(t *testing.T) {
	sources := map[string]string{"a.php": "x", "lan_en.php": "y"}
	snap := NewSnapshot(sources)
	deps := []Dep{{Path: "a.php", Hash: HashBytes("x")}}
	layout := snap.Layout()

	// Adding an unrelated file changes the layout: a dynamic page must
	// recompute (its include could now resolve differently)...
	grown := map[string]string{"a.php": "x", "lan_en.php": "y", "lan_fr.php": "z"}
	if NewSnapshot(grown).Validate(deps, true, layout) {
		t.Fatal("dynamic page replayed across a layout change")
	}
	// ...but a static page with the same closure replays fine.
	if !NewSnapshot(grown).Validate(deps, false, Hash{}) {
		t.Fatal("static page invalidated by an unrelated file")
	}
	// Editing file contents without adding/removing paths keeps the layout.
	editedOnly := map[string]string{"a.php": "x", "lan_en.php": "edited"}
	if !NewSnapshot(editedOnly).Validate(deps, true, layout) {
		t.Fatal("dynamic page invalidated by a content-only edit outside its closure")
	}
}

func TestRecorderCapturesClosure(t *testing.T) {
	sources := map[string]string{
		"page.php": "<?php include('lib.php');",
		"lib.php":  "<?php echo 1;",
	}
	snap := NewSnapshot(sources)
	rec := NewRecorder(analysis.NewMapResolver(sources), snap)
	if _, ok := rec.Load("page.php"); !ok {
		t.Fatal("page load failed")
	}
	if _, ok := rec.Load("lib.php"); !ok {
		t.Fatal("lib load failed")
	}
	if _, ok := rec.Load("absent.php"); ok {
		t.Fatal("absent load succeeded")
	}
	deps := rec.Deps()
	if len(deps) != 3 {
		t.Fatalf("deps = %+v", deps)
	}
	// Sorted by path, with content identity for present files and the
	// missing marker for absent ones.
	if deps[0].Path != "absent.php" || !deps[0].Missing {
		t.Fatalf("deps[0] = %+v", deps[0])
	}
	if deps[1].Path != "lib.php" || deps[1].Hash != HashBytes(sources["lib.php"]) {
		t.Fatalf("deps[1] = %+v", deps[1])
	}
	if rec.Dynamic() {
		t.Fatal("dynamic flagged without a Files() call")
	}
	rec.Files()
	if !rec.Dynamic() {
		t.Fatal("Files() call not recorded")
	}
}

// ---- summary store ---------------------------------------------------------

func summary(entry string) *PageSummary {
	return &PageSummary{
		Entry:          entry,
		Deps:           []Dep{{Path: entry, Hash: HashBytes("src")}, {Path: "gone.php", Missing: true}},
		AnalysisTimeNS: 1000,
		NumNTs:         3,
		NumProds:       4,
		Hotspots: []HotspotSummary{{
			File: entry, Line: 4, Call: "mysql_query",
			VerdictRecord: vcache.VerdictRecord{Verdict: "vulnerable", LabeledNTs: 2,
				Reports: []vcache.Report{{Label: 1, Check: 1, Witness: "a'b", Source: "_GET[id]"}}},
			Census: policy.Census{CheckTime: 500, SliceCensus: vcache.SliceCensus{SliceNTs: 5, SliceProds: 6, CompactNTs: 2, CompactProds: 3}},
		}},
	}
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	Put(s, tag, summary("page.php"))
	// Pending summaries are invisible until Flush.
	if _, look := Get(s, "page.php", tag); look != vcache.Absent {
		t.Fatal("pending summary visible before Flush")
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	got, look := Get(s, "page.php", tag)
	if look != vcache.Found {
		t.Fatal("flushed summary not found")
	}
	if got.Entry != "page.php" || len(got.Hotspots) != 1 || got.Hotspots[0].Reports[0].Witness != "a'b" {
		t.Fatalf("summary mangled: %+v", got)
	}
	st := s.CacheStats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Written != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStoreOverwriteOnFlush(t *testing.T) {
	// Unlike the content-addressed verdict cache, summaries are keyed by
	// entry path: the newest analysis must supersede the old one.
	dir := t.TempDir()
	s1, _ := Open(dir)
	Put(s1, tag, summary("page.php"))
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _ := Open(dir)
	updated := summary("page.php")
	updated.Hotspots[0].Reports[0].Witness = "z'z"
	Put(s2, tag, updated)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	got, look := Get(s2, "page.php", tag)
	if look != vcache.Found || got.Hotspots[0].Reports[0].Witness != "z'z" {
		t.Fatalf("newest summary did not win: %+v", got)
	}
}

// TestInvalidSummariesMiss: every flavor of bad summary is a miss that
// degrades to a cold recompute, never a wrong reuse.
func TestInvalidSummariesMiss(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	Put(s, tag, summary("page.php"))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	path := recordFile(t, dir)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	restore := func() {
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	mangle := func(old, new string) func(*testing.T) {
		return func(t *testing.T) {
			m := strings.Replace(string(orig), old, new, 1)
			if m == string(orig) {
				t.Fatalf("pattern %q not found in summary", old)
			}
			if err := os.WriteFile(path, []byte(m), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := []struct {
		name    string
		corrupt func(t *testing.T)
	}{
		{"truncated", func(t *testing.T) {
			if err := os.WriteFile(path, orig[:len(orig)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"garbage", func(t *testing.T) {
			if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"format-version-mismatch", mangle(`"format":1`, `"format":99`)},
		{"entry-mismatch", mangle(`"entry":"page.php"`, `"entry":"other.php"`)},
		{"dep-hash-malformed", mangle(HashBytes("src").Hex(), "zz-not-hex")},
		{"verdict-report-inconsistent", mangle(`"vulnerable"`, `"verified"`)},
		{"verdict-unknown", mangle(`"vulnerable"`, `"unknown"`)},
		{"check-out-of-range", mangle(`"check":1`, `"check":7`)},
		{"line-out-of-range", mangle(`"line":4`, `"line":0`)},
		{"census-negative", mangle(`"compact_nts":2`, `"compact_nts":-2`)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.corrupt(t)
			defer restore()
			before := s.CacheStats().Errors
			if _, look := Get(s, "page.php", tag); look != vcache.Rejected {
				t.Fatalf("%s summary accepted", tc.name)
			}
			if s.CacheStats().Errors != before+1 {
				t.Fatalf("%s summary not counted as error", tc.name)
			}
		})
	}

	// Stale tag (intact file; the analyzer configuration moved on).
	if _, look := Get(s, "page.php", "incr-test-v2"); look != vcache.Rejected {
		t.Fatal("stale-tag summary accepted")
	}
	// Sanity: the untouched summary still hits under the right tag.
	if _, look := Get(s, "page.php", tag); look != vcache.Found {
		t.Fatal("valid summary lost after corruption round-trips")
	}
}

func TestDynamicSummaryNeedsLayout(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	ps := summary("menu.php")
	ps.Dynamic = true // but no Layout recorded: structurally invalid
	Put(s, tag, ps)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, look := Get(s, "menu.php", tag); look != vcache.Rejected {
		t.Fatal("dynamic summary without layout hash accepted")
	}
}

func TestNilStoreSafe(t *testing.T) {
	var s *vcache.Store
	if _, look := Get(s, "page.php", tag); look != vcache.Absent {
		t.Fatal("nil store hit")
	}
	Put(s, tag, summary("page.php"))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.CacheStats(); st != (vcache.Stats{}) {
		t.Fatalf("nil stats = %+v", st)
	}
	if s.Dir() != "" {
		t.Fatal("nil dir")
	}
}

func TestTempFilesCleanedUp(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	Put(s, tag, summary("page.php"))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	var tmps []string
	if err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasPrefix(d.Name(), ".tmp-") {
			tmps = append(tmps, p)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(tmps) > 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
}

func TestParseHex(t *testing.T) {
	h := HashBytes("x")
	got, ok := ParseHex(h.Hex())
	if !ok || got != h {
		t.Fatal("hex round trip failed")
	}
	for _, bad := range []string{"", "zz", h.Hex()[:10], h.Hex() + "00"} {
		if _, ok := ParseHex(bad); ok {
			t.Fatalf("ParseHex(%q) accepted", bad)
		}
	}
}

// recordFile returns the one record file under a store directory.
func recordFile(t *testing.T, dir string) string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*", "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("record files = %v, %v; want one", files, err)
	}
	return files[0]
}
