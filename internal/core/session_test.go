package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sqlciv/internal/analysis"
	"sqlciv/internal/corpus"
	"sqlciv/internal/incr"
	"sqlciv/internal/vcache"
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

// summaryFixture is a page with two hotspots, one in an included file: one
// verified, one reported.
var summaryFixture = map[string]string{
	"page.php": "<?php\ninclude('lib.php');\n$id = $_GET['id'];\nmysql_query(\"SELECT * FROM t WHERE name='$id'\");\n",
	"lib.php":  "<?php\n$q = addslashes($_GET['q']);\nmysql_query(\"SELECT * FROM t WHERE q='$q'\");\n",
}

// parentSummary is the summary of summaryFixture's page.php as the release
// before policy.Census wrote it, under a step and memory budget so the
// optional census keys are present.
const parentSummary = `{"format":1,"tag":"sqlciv-policy-v1|incr-v3|guard=false|depth=0|slice=false|mq=false","entry":"page.php","deps":[{"path":"lib.php","hash":"f7a6ae59476485efa5faf24c1561f9401c889cecdc9325d7294a895e5401e487"},{"path":"page.php","hash":"8bb84d55cc39672944a4b88a65dbb22659cff7b4a2e85c8080f718a73a055ac5"}],"layout":"056ce59e3ffe4419d367e444573ef8ed044f4e8f5f5a2f3508c718b9d1d6925f","analysis_time_ns":984866,"num_nts":273,"num_prods":797,"hotspots":[{"file":"lib.php","line":3,"call":"mysql_query","verdict":"verified","labeled_nts":3,"check_time_ns":3448261,"slice_nts":262,"slice_prods":518,"compact_nts":5,"compact_prods":261,"budget_steps":8328},{"file":"page.php","line":4,"call":"mysql_query","verdict":"vulnerable","labeled_nts":1,"reports":[{"label":1,"check":1,"witness":"'","source":"_GET[id]"}],"check_time_ns":3108549,"slice_nts":3,"slice_prods":259,"compact_nts":3,"compact_prods":259,"budget_steps":8641,"budget_mem_high":265856}]}`

// TestParentSummaryReplays: a summary the earlier schema wrote decodes,
// encodes back to the same bytes, and replays: a fresh session over the
// same sources serves the page from the store with a cold run's findings
// and the census the summary recorded.
func TestParentSummaryReplays(t *testing.T) {
	dir := t.TempDir()
	k := sha256.Sum256([]byte("page.php"))
	hx := hex.EncodeToString(k[:])
	path := filepath.Join(dir, hx[:2], hx+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(parentSummary+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := incr.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ps, look := incr.Get(store, "page.php", optionsTag(analysis.Options{}))
	if look != vcache.Found {
		t.Fatalf("parent summary not found: %v", look)
	}
	if b, err := json.Marshal(ps); err != nil || string(b) != parentSummary {
		t.Fatalf("parent summary re-encodes differently (%v):\n%s\nwant\n%s", err, b, parentSummary)
	}

	entries := []string{"page.php"}
	cold, err := AnalyzeApp(analysis.NewMapResolver(summaryFixture), entries, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ses := NewSession(SessionConfig{Summaries: store})
	res, err := AnalyzeApp(analysis.NewMapResolver(summaryFixture), entries, Options{Session: ses})
	if err != nil {
		t.Fatal(err)
	}
	if in := res.Incr; in.SummaryHits != 1 || in.PagesReplayed != 1 || in.FilesParsed != 0 {
		t.Fatalf("parent summary did not replay: %+v", in)
	}
	if len(cold.Findings) != 1 || !reflect.DeepEqual(res.Findings, cold.Findings) {
		t.Fatalf("replayed findings %+v, cold %+v", res.Findings, cold.Findings)
	}
	if res.CheckTime != 3448261+3108549 || res.BudgetSteps != 8328+8641 || res.BudgetMemHigh != 265856 ||
		res.SliceNTs != 265 || res.SliceProds != 777 || res.CompactNTs != 8 || res.CompactProds != 520 ||
		res.NumNTs != 273 || res.NumProds != 797 {
		t.Fatalf("replayed census differs from the summary's: %s", res.Stats())
	}
}
