// Command sqlcheck analyzes a PHP web application for SQL command injection
// vulnerabilities (SQLCIVs) using the grammar-based string-taint analysis.
//
// Usage:
//
//	sqlcheck [-entry page.php]... <dir>    analyze an application directory
//	sqlcheck -table1                       run the five synthetic evaluation
//	                                       subjects and print the paper's
//	                                       Table 1 side by side
//	sqlcheck -no-refine ...                disable regex-guard refinement
//	                                       (the precision ablation)
//
// Without -entry flags, every .php file in the directory that is not
// obviously an include (name beginning with "common", "class", "lib" or in
// an includes/ or languages/ directory) is treated as a top-level page.
//
// Profiling and performance flags: -parallel N analyzes pages and hotspots
// over N workers, -stats prints phase wall times and cache counters,
// -cpuprofile/-memprofile write pprof profiles of the run.
//
// Hotspot verdicts persist across runs in a content-addressed on-disk cache
// (keyed by each hotspot's query-grammar slice plus the policy version, so
// edits and policy changes invalidate naturally). -cache-dir
// overrides its location (default: a sqlciv directory under the user cache
// dir); -no-cache disables it for a run.
//
// Incremental re-analysis: -incremental additionally memoizes whole-page
// analysis summaries keyed by the content hashes of each page's include
// closure (persisted under -incr-dir, next to the verdict cache), so a
// re-run replays unchanged pages byte-identically and recomputes only
// dirtied files. -watch keeps the process alive and re-checks whenever a
// file's content hash changes — the warm in-process session makes each
// iteration a hash sweep plus a delta re-check. -stats reports the reuse
// percentages alongside the verdict-cache hit rates.
//
// Observability: -trace FILE records a span trace of the run, in JSONL
// (-trace-format jsonl, the default) or the Chrome trace-event format
// (-trace-format chrome, loadable in Perfetto / chrome://tracing with one
// lane per worker); -progress paints a live status line on stderr; and
// -debug-addr HOST:PORT serves /debug/progress and /debug/pprof for a run
// in flight.
//
// Resource budgets: -timeout bounds the whole run, -hotspot-timeout,
// -max-steps and -max-mem bound each analysis unit (one page analysis or
// one hotspot check). An over-budget unit is reported as
// "analysis incomplete" — a conservative finding, never a silent pass.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"sqlciv/internal/analysis"
	"sqlciv/internal/core"
	"sqlciv/internal/corpus"
	"sqlciv/internal/incr"
	"sqlciv/internal/vcache"
	"sqlciv/internal/xss"
)

func main() {
	// Exit via a helper so the deferred profile writers run before the
	// process-level exit code is set.
	os.Exit(run())
}

func run() int {
	var entries multiFlag
	table1 := flag.Bool("table1", false, "run the synthetic evaluation suite (paper Table 1)")
	noRefine := flag.Bool("no-refine", false, "disable regex-guard refinement")
	doXSS := flag.Bool("xss", false, "also check page HTML output for cross-site scripting")
	asJSON := flag.Bool("json", false, "emit the report as JSON")
	parallel := flag.Int("parallel", 0, "worker count for pages and hotspot checks (0 = one per core)")
	stats := flag.Bool("stats", false, "print phase wall times, cache hit/miss counters, and budget consumption")
	traceFile := flag.String("trace", "", "record a span trace of the run to this file")
	traceFormat := flag.String("trace-format", "jsonl", "trace file format: jsonl or chrome (Perfetto-loadable)")
	progress := flag.Bool("progress", false, "paint a live progress line on stderr")
	debugAddr := flag.String("debug-addr", "", "serve /debug/progress and /debug/pprof on this address (e.g. localhost:6060)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the whole run (0 = unlimited)")
	hotspotTimeout := flag.Duration("hotspot-timeout", 0, "wall-clock budget per hotspot check (0 = unlimited)")
	maxSteps := flag.Int64("max-steps", 0, "abstract step budget per analysis unit (0 = unlimited)")
	maxMem := flag.Int64("max-mem", 0, "estimated memory budget in bytes per analysis unit (0 = unlimited)")
	cacheDir := flag.String("cache-dir", "", "persistent verdict-cache directory (default: a sqlciv dir under the user cache dir)")
	noCache := flag.Bool("no-cache", false, "disable the persistent verdict cache")
	incremental := flag.Bool("incremental", false, "reuse per-page analysis summaries keyed by content hash: unchanged pages replay their prior findings, only dirtied files recompute")
	incrDir := flag.String("incr-dir", "", "persistent page-summary directory for -incremental (default: a sqlciv dir under the user cache dir)")
	watch := flag.Bool("watch", false, "keep running, re-checking the directory whenever a file's content hash changes (implies -incremental)")
	watchInterval := flag.Duration("watch-interval", 2*time.Second, "poll interval for -watch")
	emitPack := flag.String("emit-pack", "", "after analysis, compile the per-hotspot query languages into a runtime policy pack at this path (enforce with cmd/sqlguard)")
	flag.Var(&entries, "entry", "top-level page (repeatable)")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sqlcheck:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "sqlcheck:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sqlcheck:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "sqlcheck:", err)
			}
		}()
	}

	// The flag convention (0 = one worker per core) and the Options
	// convention (0 or 1 = sequential) meet in core.AutoParallel.
	workers := core.AutoParallel(*parallel)
	opts := core.Options{Parallel: workers, ParallelHotspots: workers}
	opts.Analysis.DisableGuardRefinement = *noRefine
	opts.Budget.Timeout = *timeout
	opts.Budget.HotspotTimeout = *hotspotTimeout
	opts.Budget.MaxSteps = *maxSteps
	opts.Budget.MaxMemBytes = *maxMem

	// Persistent verdict cache: on by default, content-addressed, so a bad
	// or missing cache directory only costs speed — warn and run cold.
	if !*noCache {
		store := openStore(*cacheDir, "vcache", "verdict cache")
		defer closeStore(store, "verdict cache")
		opts.VerdictCache = store
	}

	// Incremental re-analysis: a session memoizes per-page outcomes keyed by
	// the content hashes of each page's include closure, persisted next to
	// the verdict cache so even the first run of a process can replay
	// unchanged pages. Like the verdict cache, a bad or missing directory
	// only costs speed — warn and run with an in-memory session.
	if *watch {
		*incremental = true
	}
	if *incremental {
		store := openStore(*incrDir, "incr", "summary store")
		defer closeStore(store, "summary store")
		opts.Session = core.NewSession(core.SessionConfig{Summaries: store})
	}

	tracer, stopTracing, err := setupTracer(*traceFile, *traceFormat, *progress, *debugAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sqlcheck:", err)
		return 1
	}
	defer stopTracing()
	opts.Tracer = tracer

	if *table1 {
		if *emitPack != "" {
			fmt.Fprintln(os.Stderr, "sqlcheck: -emit-pack needs an application directory, not -table1")
			return 2
		}
		runTable1(opts, *stats)
		return 0
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: sqlcheck [-table1] [-no-refine] [-parallel n] [-stats] [-entry page.php]... <dir>")
		return 2
	}
	dir := flag.Arg(0)
	if *watch {
		return runWatch(dir, entries, opts, *watchInterval, *asJSON, *stats)
	}
	sources, err := loadDir(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sqlcheck:", err)
		return 1
	}
	pages := []string(entries)
	if len(pages) == 0 {
		pages = core.GuessEntries(sources)
	}
	res, err := core.AnalyzeAppCtx(context.Background(), analysis.NewMapResolver(sources), pages, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sqlcheck:", err)
		return 1
	}
	if *emitPack != "" {
		data, pstats, err := core.BuildPack(res, core.PackOptions{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "sqlcheck: emit-pack:", err)
			return 1
		}
		if err := os.WriteFile(*emitPack, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "sqlcheck: emit-pack:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "sqlcheck: wrote policy pack %s: %d hotspots (%d verified, %d unavailable), %d automaton states, %d bytes\n",
			*emitPack, pstats.Hotspots, pstats.Verified, pstats.Unavailable, pstats.States, pstats.PackBytes)
	}
	bad := !res.Verified()
	var xssFindings []xss.Finding
	if *doXSS {
		xssFindings, err = xss.Audit(analysis.NewMapResolver(sources), pages, opts.Analysis)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sqlcheck:", err)
			return 1
		}
		if len(xssFindings) > 0 {
			bad = true
		}
	}
	if *asJSON {
		emitJSON(res, xssFindings)
	} else {
		fmt.Print(res.Summary())
		if *doXSS {
			if len(xssFindings) == 0 {
				fmt.Println("XSS: no findings")
			} else {
				fmt.Printf("XSS: %d findings:\n", len(xssFindings))
				for _, f := range xssFindings {
					fmt.Println("  " + f.String())
				}
			}
		}
	}
	if *stats {
		// To stderr so -json consumers still read clean JSON from stdout.
		fmt.Fprint(os.Stderr, res.Stats())
	}
	if bad {
		return 1
	}
	return 0
}

// openStore opens the record store at dir, or at the default directory
// called name under the user cache dir when dir is empty. A store that
// cannot be opened only costs speed: it warns and returns nil, which
// disables persistence.
func openStore(dir, name, what string) *vcache.Store {
	if dir == "" {
		d, err := vcache.DefaultDir(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sqlcheck: %s disabled: %v\n", what, err)
			return nil
		}
		dir = d
	}
	store, err := vcache.Open(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sqlcheck: %s disabled: %v\n", what, err)
		return nil
	}
	return store
}

// closeStore flushes what the run left pending in store.
func closeStore(store *vcache.Store, what string) {
	if err := store.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "sqlcheck: %s flush: %v\n", what, err)
	}
}

// runWatch re-checks the directory whenever any file's content hash changes
// (mtime-independent: touching a file without editing it re-checks nothing,
// and the session replays every page whose include closure is unchanged, so
// a steady-state iteration is a hash sweep plus a tiny delta re-check).
// Runs until interrupted. XSS auditing is not wired here — watch mode serves
// the edit loop for the injection analysis.
func runWatch(dir string, entries []string, opts core.Options, interval time.Duration, asJSON, stats bool) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var last incr.Hash
	first := true
	for {
		sources, err := loadDir(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sqlcheck:", err)
		} else if digest := incr.NewSnapshot(sources).Digest(); first || digest != last {
			first, last = false, digest
			pages := entries
			if len(pages) == 0 {
				pages = core.GuessEntries(sources)
			}
			res, err := core.AnalyzeAppCtx(ctx, analysis.NewMapResolver(sources), pages, opts)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sqlcheck:", err)
			} else {
				fmt.Printf("-- %s: %d files checked in %v\n", time.Now().Format("15:04:05"),
					res.Files, (res.StringAnalysisWall + res.CheckWall).Round(time.Millisecond))
				if asJSON {
					emitJSON(res, nil)
				} else {
					fmt.Print(res.Summary())
				}
				if stats {
					fmt.Fprint(os.Stderr, res.Stats())
				}
				// Flush per iteration so a parallel process (or the next cold
				// start) sees the freshest summaries.
				if err := opts.Session.Flush(); err != nil {
					fmt.Fprintln(os.Stderr, "sqlcheck: summary store flush:", err)
				}
			}
		}
		select {
		case <-ctx.Done():
			return 0
		case <-time.After(interval):
		}
	}
}

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func loadDir(dir string) (map[string]string, error) {
	sources := map[string]string{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".php") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		sources[filepath.ToSlash(rel)] = string(data)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("no .php files under %s", dir)
	}
	return sources, nil
}

func runTable1(opts core.Options, stats bool) {
	fmt.Printf("%-28s %8s %9s %9s %11s %12s %10s %-16s %s\n",
		"Name (version)", "Files", "Lines", "|V|", "|R|", "StringAn", "Check", "direct", "indirect")
	for _, app := range corpus.Apps() {
		res, err := core.AnalyzeApp(analysis.NewMapResolver(app.Sources), app.Entries, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sqlcheck: %s: %v\n", app.Name, err)
			continue
		}
		dr, df, ind := classify(app, res)
		fmt.Printf("%-28s %8d %9d %9d %11d %12v %10v %-16s %d\n",
			app.Name+" ("+app.Version+")",
			res.Files, res.Lines, res.NumNTs, res.NumProds,
			res.StringAnalysisTime.Round(time.Millisecond),
			res.CheckTime.Round(time.Millisecond),
			fmt.Sprintf("%d real / %d false", dr, df), ind)
		fmt.Printf("%-28s %8d %9d %9d %11d %12s %10s %-16s %d   (paper, scale 1/%d)\n",
			"  ↳ paper", app.Paper.Files, app.Paper.Lines, app.Paper.V, app.Paper.R,
			"-", "-", app.Paper.Direct, app.Paper.Indirect, app.Scale)
		if stats {
			for _, line := range strings.Split(strings.TrimRight(res.Stats(), "\n"), "\n") {
				fmt.Println("    " + line)
			}
		}
	}
}

func classify(app *corpus.App, res *core.AppResult) (directReal, directFalse, indirect int) {
	for _, f := range res.Findings {
		switch {
		case !f.Direct():
			indirect++
		case app.FalseFiles[f.File]:
			directFalse++
		default:
			directReal++
		}
	}
	return
}
