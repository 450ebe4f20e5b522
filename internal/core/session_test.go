package core

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sqlciv/internal/analysis"
	"sqlciv/internal/corpus"
	"sqlciv/internal/incr"
)

// divergentEdit applies one seeded edit to an EVE source tree: a comment
// in any file, a new direct taint flow appended to an entry page, or an
// include edit (an entry page starts including extra.php, extra.php
// toggles between a tainted and a safe version, or extra.php is deleted). Every edit appends or
// replaces whole files, so existing hotspots keep their line numbers.
func divergentEdit(r *rand.Rand, src map[string]string, entries []string, tag string) string {
	entry := entries[r.Intn(len(entries))]
	switch r.Intn(3) {
	case 0:
		files := []string{entry, "common.php"}
		if _, ok := src["extra.php"]; ok {
			files = append(files, "extra.php")
		}
		f := files[r.Intn(len(files))]
		if f == entry {
			src[f] += "<!-- " + tag + " -->\n" // entry pages end in HTML
		} else {
			src[f] += "// " + tag + "\n" // includes end in PHP code
		}
		return "comment " + f
	case 1:
		v := "p_" + tag
		src[entry] += fmt.Sprintf("<?php\n$%s = $_GET['%s'];\nmysql_query(\"SELECT * FROM %s WHERE name='$%s'\");\n?>\n", v, v, v, v)
		return "taint " + entry
	}
	switch r.Intn(4) {
	case 0, 1:
		src[entry] += "<?php include('extra.php'); ?>\n"
		return "include extra.php from " + entry
	case 2:
		if !strings.Contains(src["extra.php"], "$_GET") {
			src["extra.php"] = "<?php\n$x_" + tag + " = $_GET['x'];\nmysql_query(\"SELECT * FROM extra WHERE k='$x_" + tag + "'\");\n"
			return "tainted extra.php"
		}
		src["extra.php"] = "<?php\n$x_" + tag + " = 'fixed';\n"
		return "safe extra.php"
	}
	delete(src, "extra.php")
	return "delete extra.php"
}

// TestSessionConcurrentDivergentHistories checks the Session contract that
// concurrent runs over different project states can only cost cache
// efficiency, never correctness. Two goroutines share one session backed
// by a summary store; each edits its own copy of EVE along its own seeded
// history. Both copies use the same entry paths, so every page memo and
// summary one history writes is probed by the other. After every run the
// findings must equal a cold run of that goroutine's current sources.
func TestSessionConcurrentDivergentHistories(t *testing.T) {
	app := corpus.EVE()
	store, err := incr.Open(t.TempDir())
	if err != nil {
		t.Fatalf("incr.Open: %v", err)
	}
	ses := NewSession(SessionConfig{Summaries: store})
	const steps = 12
	var replayed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(17 + g)))
			src := maps.Clone(app.Sources)
			var history []string
			for step := 0; step < steps; step++ {
				history = append(history, divergentEdit(r, src, app.Entries, fmt.Sprintf("g%ds%d", g, step)))
				warm, err := AnalyzeApp(analysis.NewMapResolver(maps.Clone(src)), app.Entries, Options{Session: ses})
				if err != nil {
					t.Errorf("history %d step %d: %v", g, step, err)
					return
				}
				cold, err := AnalyzeApp(analysis.NewMapResolver(maps.Clone(src)), app.Entries, Options{})
				if err != nil {
					t.Errorf("history %d step %d cold: %v", g, step, err)
					return
				}
				replayed.Add(warm.Incr.PagesReplayed)
				if !reflect.DeepEqual(warm.Findings, cold.Findings) {
					t.Errorf("history %d after %v: session findings diverged from a cold run\nsession: %+v\ncold:    %+v",
						g, history, warm.Findings, cold.Findings)
					return
				}
				if step%3 == 2 {
					// Publish summaries mid-history, so later runs of either
					// history also replay pages from the store.
					if err := ses.Flush(); err != nil {
						t.Errorf("history %d step %d: flush: %v", g, step, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if replayed.Load() == 0 {
		t.Fatal("no run replayed a page: the histories never exercised the session")
	}
}
