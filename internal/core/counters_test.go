package core

import (
	"sync"
	"testing"

	"sqlciv/internal/analysis"
	"sqlciv/internal/corpus"
	"sqlciv/internal/obs"
	"sqlciv/internal/policy"
	"sqlciv/internal/vcache"
)

// probeCounts is a run's verdict-cache traffic.
type probeCounts struct{ memoHits, memoMisses, diskHits, diskMisses int64 }

func probesOf(res *AppResult) probeCounts {
	return probeCounts{res.VerdictCacheHits, res.VerdictCacheMisses, res.DiskCacheHits, res.DiskCacheMisses}
}

// concurrently runs each fn in its own goroutine and waits for all of them.
func concurrently(fns ...func()) {
	var start, wg sync.WaitGroup
	start.Add(1)
	for _, fn := range fns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			fn()
		}()
	}
	start.Done()
	wg.Wait()
}

func openVerdictStore(t *testing.T) *vcache.Store {
	t.Helper()
	s, err := vcache.Open(t.TempDir())
	if err != nil {
		t.Fatalf("vcache.Open: %v", err)
	}
	return s
}

// TestConcurrentRunsCountTheirOwnTraffic: runs that share a checker, or a
// session, each report exactly the counters they report alone. Utopia and
// Warp share no query slice, so on one checker (the daemon's path) neither
// can answer from the other's verdicts; each run checks its hotspots in
// sequence, so its own memo hits do not depend on scheduling. Two runs of
// one app on one session may split their parse loads between hits and
// misses differently, but each makes exactly the loads of a solo run.
func TestConcurrentRunsCountTheirOwnTraffic(t *testing.T) {
	apps := []*corpus.App{corpus.Utopia(), corpus.Warp()}
	want := []probeCounts{{memoHits: 2, memoMisses: 33, diskMisses: 35}, {memoMisses: 41, diskMisses: 41}}
	run := func(app *corpus.App, opts Options) *AppResult {
		opts.Parallel = 2
		res, err := AnalyzeApp(analysis.NewMapResolver(app.Sources), app.Entries, opts)
		if err != nil {
			t.Errorf("%s: %v", app.Name, err)
			return &AppResult{}
		}
		return res
	}
	for i, app := range apps {
		if got := probesOf(run(app, Options{VerdictCache: openVerdictStore(t)})); got != want[i] {
			t.Fatalf("%s alone: %+v, want %+v", app.Name, got, want[i])
		}
	}

	shared := policy.New()
	shared.Disk = openVerdictStore(t)
	got := make([]*AppResult, len(apps))
	concurrently(
		func() { got[0] = run(apps[0], Options{Checker: shared}) },
		func() { got[1] = run(apps[1], Options{Checker: shared}) },
	)
	for i, app := range apps {
		if p := probesOf(got[i]); p != want[i] {
			t.Errorf("%s beside %s on one checker: %+v, want its solo %+v",
				app.Name, apps[1-i].Name, p, want[i])
		}
	}

	utopia := apps[0]
	const loads = 48
	solo := run(utopia, Options{Session: NewSession(SessionConfig{})})
	if solo.ParseCacheHits+solo.ParseCacheMisses != loads {
		t.Fatalf("Utopia alone: %d parse hits + %d misses, want %d loads",
			solo.ParseCacheHits, solo.ParseCacheMisses, loads)
	}
	// Neither run may replay a page the other memoized: every hotspot check
	// waits until both runs have reached phase 2, and a run memoizes its
	// pages only after its phase 2.
	var inPhase2 sync.WaitGroup
	inPhase2.Add(2)
	barrier := func() func(analysis.Hotspot) {
		var once sync.Once
		return func(analysis.Hotspot) {
			once.Do(inPhase2.Done)
			inPhase2.Wait()
		}
	}
	ses := NewSession(SessionConfig{})
	runs := make([]*AppResult, 2)
	concurrently(
		func() { runs[0] = run(utopia, Options{Session: ses, BeforeHotspotCheck: barrier()}) },
		func() { runs[1] = run(utopia, Options{Session: ses, BeforeHotspotCheck: barrier()}) },
	)
	for i, res := range runs {
		if n := res.ParseCacheHits + res.ParseCacheMisses; n != loads {
			t.Errorf("Utopia run %d on a shared session: %d parse hits + %d misses, want %d loads",
				i, res.ParseCacheHits, res.ParseCacheMisses, loads)
		}
		if in := res.Incr; in == nil || in.FilesReused != res.ParseCacheHits || in.FilesParsed != res.ParseCacheMisses {
			t.Errorf("Utopia run %d: incremental file counters %+v disagree with its parse counters", i, in)
		}
	}
}

// internCounts is a run's intern-pool traffic.
type internCounts struct{ hits, misses int64 }

// pageInterns sums the intern counters of a run's page spans.
type pageInterns struct{ internCounts }

func (s *pageInterns) Emit(e *obs.Event) {
	s.hits += e.Counters["arena.intern-hits"]
	s.misses += e.Counters["arena.intern-misses"]
}

func (s *pageInterns) Close() error { return nil }

// TestConcurrentRunsCountTheirOwnInterns: a run and each of its pages report
// the intern-pool probes of their own grammars, so with the pool warm,
// Utopia and Warp analyzed at once report exactly what each reports alone,
// and a run's counts are the sums of its pages'.
func TestConcurrentRunsCountTheirOwnInterns(t *testing.T) {
	apps := []*corpus.App{corpus.Utopia(), corpus.Warp()}
	run := func(app *corpus.App) internCounts {
		pages := &pageInterns{}
		tr := obs.New(pages)
		res, err := AnalyzeApp(analysis.NewMapResolver(app.Sources), app.Entries, Options{Parallel: 2, Tracer: tr})
		if err != nil {
			t.Errorf("%s: %v", app.Name, err)
			return internCounts{}
		}
		if err := tr.Close(); err != nil {
			t.Errorf("%s: close tracer: %v", app.Name, err)
		}
		got := internCounts{res.InternHits, res.InternMisses}
		if pages.internCounts != got {
			t.Errorf("%s: run reports %+v, its page spans %+v", app.Name, got, pages.internCounts)
		}
		return got
	}
	for _, app := range apps {
		run(app) // warm the pool
	}
	solo := make([]internCounts, len(apps))
	for i, app := range apps {
		solo[i] = run(app)
		if solo[i].hits == 0 || solo[i].misses != 0 {
			t.Fatalf("%s alone on a warm pool: %+v, want hits only", app.Name, solo[i])
		}
	}
	got := make([]internCounts, len(apps))
	concurrently(
		func() { got[0] = run(apps[0]) },
		func() { got[1] = run(apps[1]) },
	)
	for i, app := range apps {
		if got[i] != solo[i] {
			t.Errorf("%s beside %s: %+v, want its solo %+v", app.Name, apps[1-i].Name, got[i], solo[i])
		}
	}
}
