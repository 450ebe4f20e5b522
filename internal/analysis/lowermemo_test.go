package analysis

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"sqlciv/internal/budget"
	"sqlciv/internal/corpus"
	"sqlciv/internal/obs"
)

// resetLowerMemo empties the process-wide lowering memo, so the next
// construction of every key is its first.
func resetLowerMemo() {
	lowerMemo.mu.Lock()
	lowerMemo.entries, lowerMemo.bytes = nil, 0
	lowerMemo.mu.Unlock()
}

// pageShape is everything a replayed construction must reproduce of a page.
type pageShape struct {
	grammar          string
	nts, prods       int
	slabBytes        int64
	hotspots         []Hotspot
	pageOutput       string
	hits, recs, miss int64
}

// analyzeShape analyzes one page and returns its shape, counting the lower
// span's memo counters.
func analyzeShape(t *testing.T, cache *ParseCache, sources map[string]string, entry string) pageShape {
	t.Helper()
	tr := obs.New()
	sp := tr.Start("page", entry)
	res, err := AnalyzeT(cache.Resolver(sources), entry, Options{}, nil, sp)
	sp.End()
	if err != nil {
		t.Fatalf("%s: %v", entry, err)
	}
	s := pageShape{
		grammar:    res.G.String(),
		nts:        res.G.NumNTs(),
		prods:      res.G.NumProds(),
		slabBytes:  res.G.SlabBytes(),
		hotspots:   res.Hotspots,
		pageOutput: fmt.Sprint(res.PageOutput),
	}
	c := tr.Counters()
	s.hits, s.recs, s.miss = c["lower.memo-hits"], c["lower.memo-recorded"], c["lower.memo-misses"]
	return s
}

// TestLoweringMemoReplaysExactly analyzes every corpus page with the memo
// emptied, then twice more, so the second run records every construction
// and the third replays it, and requires the same page each time: grammar
// text, |V|, |R|, slab bytes, hotspots and page output.
func TestLoweringMemoReplaysExactly(t *testing.T) {
	var constructions, replays int64
	for _, app := range corpus.Apps() {
		cache := NewParseCache()
		for _, entry := range app.Entries {
			resetLowerMemo()
			cold := analyzeShape(t, cache, app.Sources, entry)
			recorded := analyzeShape(t, cache, app.Sources, entry)
			warm := analyzeShape(t, cache, app.Sources, entry)
			n := cold.hits + cold.recs + cold.miss
			constructions += n
			replays += warm.hits
			if warm.hits+warm.recs+warm.miss != n || recorded.hits+recorded.recs+recorded.miss != n {
				t.Fatalf("%s %s: construction counts %+v, %+v, %+v", app.Name, entry, cold, recorded, warm)
			}
			if warm.hits != n {
				t.Errorf("%s %s: third run replayed %d of %d constructions", app.Name, entry, warm.hits, n)
			}
			for i, s := range []pageShape{recorded, warm} {
				s.hits, s.recs, s.miss = cold.hits, cold.recs, cold.miss
				if !reflect.DeepEqual(s, cold) {
					t.Errorf("%s %s: run %d differs from the cold run (|V| %d/%d, |R| %d/%d, slab %d/%d)",
						app.Name, entry, i+2, s.nts, cold.nts, s.prods, cold.prods, s.slabBytes, cold.slabBytes)
				}
			}
		}
	}
	if replays == 0 {
		t.Fatal("no corpus page replayed a construction")
	}
	t.Logf("%d constructions per pass, %d replayed on the third", constructions, replays)
}

// pageBudget analyzes entry under limits and returns the steps and memory
// estimate its budget used, and the error it degraded with, if any.
func pageBudget(cache *ParseCache, sources map[string]string, entry string, l budget.Limits) (int64, int64, error) {
	b := budget.New(context.Background(), l)
	_, err := AnalyzeT(cache.Resolver(sources), entry, Options{}, b, nil)
	return b.Steps(), b.MemHigh(), err
}

// TestLoweringMemoChargesTheColdBudget: a replayed construction charges what
// running it charges, so a page uses the same steps and memory estimate
// cold and replayed; and under any tighter limit the page degrades with the
// cold run's reason and detail, replay or not.
func TestLoweringMemoChargesTheColdBudget(t *testing.T) {
	app := corpus.E107()
	cache := NewParseCache()
	const lots = 1 << 40
	unlimited := budget.Limits{MaxSteps: lots, MaxMemBytes: lots}
	warmUp := func() {
		for i := 0; i < 2; i++ {
			if _, _, err := pageBudget(cache, app.Sources, "pages/page00.php", unlimited); err != nil {
				t.Fatal(err)
			}
		}
	}
	resetLowerMemo()
	steps, mem, err := pageBudget(cache, app.Sources, "pages/page00.php", unlimited)
	if err != nil {
		t.Fatal(err)
	}
	warmUp()
	if warm := analyzeShape(t, cache, app.Sources, "pages/page00.php"); warm.hits == 0 || warm.miss+warm.recs != 0 {
		t.Fatalf("warm page00 did not replay every construction: %+v", warm)
	}
	rs, rm, err := pageBudget(cache, app.Sources, "pages/page00.php", unlimited)
	if err != nil || rs != steps || rm != mem {
		t.Fatalf("cold page used %d steps and ~%d B, replayed %d and ~%d B (%v)", steps, mem, rs, rm, err)
	}

	degrade := func(l budget.Limits) {
		t.Helper()
		resetLowerMemo()
		_, _, coldErr := pageBudget(cache, app.Sources, "pages/page00.php", l)
		warmUp()
		_, _, warmErr := pageBudget(cache, app.Sources, "pages/page00.php", l)
		ce, ok1 := coldErr.(*budget.Exceeded)
		we, ok2 := warmErr.(*budget.Exceeded)
		if !ok1 || !ok2 || *ce != *we {
			t.Fatalf("under %+v: cold %v, warm %v", l, coldErr, warmErr)
		}
	}
	degrade(budget.Limits{MaxSteps: steps - 1})
	// Limits that cut inside a construction, where a replay must refuse.
	for l := steps - 1; l > 0; l -= 1 + steps/64 {
		degrade(budget.Limits{MaxSteps: l})
	}
	for l := mem - 1; l > 0; l -= 1 + mem/64 {
		degrade(budget.Limits{MaxMemBytes: l})
	}
	t.Logf("page00: %d steps and ~%d B cold and replayed", steps, mem)
}

// TestLoweringMemoConcurrent analyzes the pages of two apps at once through
// one memo, three times each, and requires every page to match its cold
// analysis. Run it under -race.
func TestLoweringMemoConcurrent(t *testing.T) {
	apps := []*corpus.App{corpus.E107(), corpus.Warp()}
	want := map[string]pageShape{}
	for _, app := range apps {
		cache := NewParseCache()
		for _, entry := range app.Entries {
			resetLowerMemo()
			want[app.Name+"/"+entry] = analyzeShape(t, cache, app.Sources, entry)
		}
	}
	resetLowerMemo()
	var wg sync.WaitGroup
	for _, app := range apps {
		wg.Add(1)
		go func(app *corpus.App) {
			defer wg.Done()
			cache := NewParseCache()
			for round := 0; round < 3; round++ {
				for _, entry := range app.Entries {
					res, err := Analyze(cache.Resolver(app.Sources), entry, Options{})
					if err != nil {
						t.Error(err)
						return
					}
					w := want[app.Name+"/"+entry]
					if res.G.String() != w.grammar || res.G.SlabBytes() != w.slabBytes ||
						!reflect.DeepEqual(res.Hotspots, w.hotspots) {
						t.Errorf("%s %s round %d differs from its cold analysis", app.Name, entry, round)
					}
				}
			}
		}(app)
	}
	wg.Wait()
}
