package analysis

import (
	"reflect"
	"sort"
	"testing"

	"sqlciv/internal/corpus"
)

// FuzzAnalyze asserts the static analysis never panics on any parseable
// program — the soundness theorem is only as good as the analyzer's
// robustness on arbitrary input code — and that the lowering memo replays
// exactly: each input is analyzed three times from an emptied memo (its
// constructions run, then record, then replay), with the same grammar and
// hotspots every time.
func FuzzAnalyze(f *testing.F) {
	seeds := []string{
		`<?php $x = $_GET['a']; mysql_query("SELECT '$x'");`,
		`<?php if (!preg_match('/^[0-9]+$/', $_GET['i'])) { exit; } mysql_query("SELECT " . $_GET['i']);`,
		`<?php while ($m) { $s = addslashes($s) . "'"; } mysql_query($s);`,
		`<?php function f($v) { global $g; return $g . $v; } mysql_query(f($_POST['p']));`,
		`<?php $p = explode(',', $_GET['csv']); mysql_query("IN ('" . implode("','", $p) . "')");`,
		`<?php include('x.php'); echo htmlspecialchars($_GET['q']);`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	// Corpus files small enough for the per-case size cap below: the entry
	// pages are padded to the paper's line counts, so the shared
	// include/sanitizer files are what fits.
	for _, app := range corpus.Apps() {
		names := make([]string, 0, len(app.Sources))
		for name := range app.Sources {
			names = append(names, name)
		}
		sort.Strings(names)
		added := 0
		for _, name := range names {
			if src := app.Sources[name]; len(src) <= 2000 {
				f.Add(src)
				if added++; added >= 6 {
					break
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 2000 {
			return // keep per-case cost bounded
		}
		resolver := NewMapResolver(map[string]string{"f.php": src})
		if _, ok := resolver.Load("f.php"); !ok {
			return
		}
		resetLowerMemo()
		res, err := Analyze(resolver, "f.php", Options{})
		if err != nil {
			t.Fatalf("Analyze error on parseable program: %v", err)
		}
		// Every hotspot root must belong to the grammar.
		for _, h := range res.Hotspots {
			if !res.G.IsNT(h.Root) {
				t.Fatal("hotspot root outside grammar")
			}
		}
		want := res.G.String()
		for run := 2; run <= 3; run++ {
			again, err := Analyze(resolver, "f.php", Options{})
			if err != nil {
				t.Fatalf("run %d: %v", run, err)
			}
			if again.G.String() != want || !reflect.DeepEqual(again.Hotspots, res.Hotspots) {
				t.Fatalf("run %d differs from the first:\n%s\nfirst:\n%s", run, again.G.String(), want)
			}
		}
	})
}
