// server_e2e_test.go is the end-to-end differential suite: every Table-1
// corpus subject travels through the real HTTP surface — httptest listener,
// the library client from the root package, JSON both ways — and the served
// findings must reconstruct DeepEqual to an in-process AnalyzeAppCtx run.
// Both endpoints are exercised in both cache states (sync-cold/async-warm
// on one server, async-cold/sync-warm on another), so byte-identity holds
// regardless of which path filled the caches.
package server_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"

	"sqlciv"
	"sqlciv/internal/analysis"
	"sqlciv/internal/core"
	"sqlciv/internal/corpus"
	"sqlciv/internal/server"
	"sqlciv/internal/vcache"
)

// newTestService starts a Server with a fresh persistent store under t's
// temp dir and returns a client against a real listener.
func newTestService(t *testing.T, cfg server.Config) (*server.Server, *sqlciv.Client) {
	t.Helper()
	if cfg.VerdictCache == nil {
		store, err := vcache.Open(filepath.Join(t.TempDir(), "vc"))
		if err != nil {
			t.Fatalf("vcache.Open: %v", err)
		}
		cfg.VerdictCache = store
	}
	srv := server.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, sqlciv.NewServiceClient(ts.URL)
}

// reference runs the app in process with options matching a served job:
// sequential, unbudgeted, untraced, uncached.
func reference(t *testing.T, app *corpus.App) *core.AppResult {
	t.Helper()
	res, err := core.AnalyzeAppCtx(context.Background(),
		analysis.NewMapResolver(app.Sources), app.Entries, core.Options{})
	if err != nil {
		t.Fatalf("reference AnalyzeAppCtx(%s): %v", app.Name, err)
	}
	return res
}

// scrubSpanIDs zeroes trace span ids: async jobs run traced (for the
// progress endpoint), so their findings carry ids from the job's own
// tracer, which an untraced reference run cannot share.
func scrubSpanIDs(res *core.AppResult) {
	for i := range res.Findings {
		res.Findings[i].SpanID = 0
	}
	for i := range res.Degradations {
		res.Degradations[i].SpanID = 0
	}
}

// assertSame compares a served payload against the in-process reference.
// exact=true additionally demands identical span ids (the sync path is
// untraced, so both sides are all zero — full byte-identity).
func assertSame(t *testing.T, label string, ref *core.AppResult, got *sqlciv.AnalyzeResponse, exact bool) {
	t.Helper()
	rec := got.CoreResult()
	refFindings, refDegr := ref.Findings, ref.Degradations
	if !exact {
		scrubSpanIDs(rec)
	}
	if len(rec.Findings) == 0 && len(refFindings) == 0 {
		// reflect.DeepEqual(nil, []T{}) is false; both empty is equal.
	} else if !reflect.DeepEqual(rec.Findings, refFindings) {
		t.Errorf("%s: served findings diverged from in-process run.\nserved: %#v\nlocal:  %#v",
			label, rec.Findings, refFindings)
	}
	if len(rec.Degradations) != 0 || len(refDegr) != 0 {
		if !reflect.DeepEqual(rec.Degradations, refDegr) {
			t.Errorf("%s: served degradations diverged.\nserved: %#v\nlocal:  %#v",
				label, rec.Degradations, refDegr)
		}
	}
	if got.Verified != ref.Verified() {
		t.Errorf("%s: served verified=%v, local %v", label, got.Verified, ref.Verified())
	}
	if got.Files != ref.Files || got.Lines != ref.Lines ||
		got.GrammarV != ref.NumNTs || got.GrammarR != ref.NumProds {
		t.Errorf("%s: served census (files=%d lines=%d V=%d R=%d) != local (files=%d lines=%d V=%d R=%d)",
			label, got.Files, got.Lines, got.GrammarV, got.GrammarR,
			ref.Files, ref.Lines, ref.NumNTs, ref.NumProds)
	}
}

func analyzeSync(t *testing.T, c *sqlciv.Client, app *corpus.App) *sqlciv.AnalyzeResponse {
	t.Helper()
	res, err := c.Analyze(context.Background(),
		&sqlciv.AnalyzeRequest{Sources: app.Sources, Entries: app.Entries})
	if err != nil {
		t.Fatalf("Analyze(%s): %v", app.Name, err)
	}
	return res
}

func analyzeAsync(t *testing.T, c *sqlciv.Client, app *corpus.App) *sqlciv.AnalyzeResponse {
	t.Helper()
	ctx := context.Background()
	st, err := c.SubmitJob(ctx, &sqlciv.AnalyzeRequest{Sources: app.Sources, Entries: app.Entries})
	if err != nil {
		t.Fatalf("SubmitJob(%s): %v", app.Name, err)
	}
	if st.State != server.StateQueued && st.State != server.StateRunning {
		t.Fatalf("SubmitJob(%s): unexpected initial state %q", app.Name, st.State)
	}
	res, err := c.WaitJob(ctx, st.ID)
	if err != nil {
		t.Fatalf("WaitJob(%s): %v", app.Name, err)
	}
	return res
}

// TestServedDifferential is the acceptance suite: all five subjects, sync
// and async, cold and warm, against one warm resident server each way.
func TestServedDifferential(t *testing.T) {
	// Server A sees sync first (cold) then async (warm);
	// server B sees async first (cold) then sync (warm).
	_, clientA := newTestService(t, server.Config{Workers: 2})
	_, clientB := newTestService(t, server.Config{Workers: 2})
	for _, app := range corpus.Apps() {
		ref := reference(t, app)
		assertSame(t, app.Name+"/sync-cold", ref, analyzeSync(t, clientA, app), true)
		assertSame(t, app.Name+"/async-warm", ref, analyzeAsync(t, clientA, app), false)
		assertSame(t, app.Name+"/async-cold", ref, analyzeAsync(t, clientB, app), false)
		assertSame(t, app.Name+"/sync-warm", ref, analyzeSync(t, clientB, app), true)
	}
}

// TestHTMLCharactersRoundTrip sends PHP full of '<', '>' and '&' through the
// library client. The body must carry them as they are, not as
// encoding/json's default \u003c-style escapes, and the served findings
// must match an in-process run.
func TestHTMLCharactersRoundTrip(t *testing.T) {
	app := &corpus.App{
		Name: "html",
		Sources: map[string]string{
			"page.php": `<?php
$id = $_GET['id'];
if ($id > 0 && $id < 100) { echo "<b>" . $id . "</b> &amp; more"; }
mysql_query("SELECT * FROM t WHERE a<>b AND id='$id'");
?>
<html><body>&lt;done&gt;</body></html>
`,
			"safe.php": `<?php
$id = (int)$_GET['id'];
if ($id >= 1 && $id <= 9) { mysql_query("SELECT * FROM t WHERE id=$id & 255"); }
?>
`,
		},
		Entries: []string{"page.php", "safe.php"},
	}
	_, client := newTestService(t, server.Config{Workers: 1})
	rec := &bodyRecorder{}
	client.HTTPClient = &http.Client{Transport: rec}

	ref := reference(t, app)
	if len(ref.Findings) == 0 {
		t.Fatal("the in-process run reports nothing; the app should have a finding")
	}
	assertSame(t, app.Name, ref, analyzeSync(t, client, app), true)
	if _, err := client.Pack(context.Background(), &sqlciv.AnalyzeRequest{Sources: app.Sources, Entries: app.Entries}); err != nil {
		t.Fatalf("Pack: %v", err)
	}
	if len(rec.bodies) != 2 {
		t.Fatalf("saw %d request bodies, want 2", len(rec.bodies))
	}
	for _, body := range rec.bodies {
		for _, esc := range []string{`\u003c`, `\u003e`, `\u0026`} {
			if bytes.Contains(body, []byte(esc)) {
				t.Errorf("request body carries %s escapes: %.80s...", esc, body)
			}
		}
		if !bytes.Contains(body, []byte("a<>b AND")) || !bytes.Contains(body, []byte("&amp;")) {
			t.Errorf("request body lost the raw characters: %.80s...", body)
		}
	}
}

// bodyRecorder is a client transport that keeps a copy of every request
// body it sends.
type bodyRecorder struct {
	bodies [][]byte
}

func (b *bodyRecorder) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.GetBody != nil {
		rc, err := r.GetBody()
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(rc)
		if err != nil {
			return nil, err
		}
		b.bodies = append(b.bodies, body)
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestWarmRepeatHitsCache pins the amortization claim: a repeat submission
// of an unchanged app answers its hotspot checks from the verdict cache
// tiers (persistent store first, then the in-memory memo).
func TestWarmRepeatHitsCache(t *testing.T) {
	srv, client := newTestService(t, server.Config{Workers: 1})
	app := corpus.Utopia()
	analyzeSync(t, client, app)
	cold := srv.Stats()
	analyzeSync(t, client, app)
	warm := srv.Stats()
	gained := (warm.DiskCacheHits + warm.VerdictCacheHits) - (cold.DiskCacheHits + cold.VerdictCacheHits)
	if gained <= 0 {
		t.Fatalf("warm repeat gained no cache hits: cold %+v warm %+v", cold, warm)
	}
	// The repeat recomputed nothing: every one of its hotspot checks was a
	// cache hit, so the compute count (memo misses) must not move.
	if warm.VerdictCacheMisses != cold.VerdictCacheMisses {
		t.Errorf("warm repeat recomputed %d hotspots (memo misses %d -> %d)",
			warm.VerdictCacheMisses-cold.VerdictCacheMisses, cold.VerdictCacheMisses, warm.VerdictCacheMisses)
	}
	if warm.WarmHitPct <= 0 {
		t.Errorf("warm hit pct = %v, want > 0", warm.WarmHitPct)
	}
}

// TestIncrementalEditOverWire pins the daemon's incremental acceptance
// claim: a warm sqlcheckd serves an edit-one-file re-analysis without
// re-parsing unchanged files — proven by exact incremental counters, not
// timings — while the served findings stay byte-identical to a cold
// in-process run over the edited sources.
func TestIncrementalEditOverWire(t *testing.T) {
	srv, client := newTestService(t, server.Config{Workers: 1})
	app := corpus.Tiger()
	target := app.Entries[0]
	submit := func(sources map[string]string) *sqlciv.AnalyzeResponse {
		t.Helper()
		res, err := client.Analyze(context.Background(), &sqlciv.AnalyzeRequest{
			Sources: sources, Entries: app.Entries,
			Options: sqlciv.AnalyzeRequestOptions{Incremental: true},
		})
		if err != nil {
			t.Fatalf("incremental Analyze(%s): %v", app.Name, err)
		}
		return res
	}

	cold := submit(app.Sources)
	if cold.Stats.IncrPagesRecomputed != int64(len(app.Entries)) || cold.Stats.IncrPagesReplayed != 0 {
		t.Fatalf("cold fill recomputed %d / replayed %d pages, want %d / 0",
			cold.Stats.IncrPagesRecomputed, cold.Stats.IncrPagesReplayed, len(app.Entries))
	}

	mutated := make(map[string]string, len(app.Sources))
	for k, v := range app.Sources {
		mutated[k] = v
	}
	mutated[target] += "<!-- edited -->\n"
	warm := submit(mutated)

	// The edited file is an entry page no other page includes: exactly one
	// page recomputes, every other page replays, and the recompute re-parses
	// only the edited file (its unchanged includes come from the session's
	// parse cache).
	if warm.Stats.IncrPagesRecomputed != 1 {
		t.Errorf("edit recomputed %d pages, want exactly 1", warm.Stats.IncrPagesRecomputed)
	}
	if warm.Stats.IncrPagesReplayed != int64(len(app.Entries)-1) {
		t.Errorf("edit replayed %d pages, want %d", warm.Stats.IncrPagesReplayed, len(app.Entries)-1)
	}
	if warm.Stats.IncrFilesParsed != 1 {
		t.Errorf("edit re-parsed %d files, want exactly 1 (the edited file)", warm.Stats.IncrFilesParsed)
	}
	if warm.Stats.IncrHotspotsReplayed == 0 {
		t.Error("edit replayed no hotspot verdicts")
	}

	// Replay must not cost fidelity: the served payload reconstructs the
	// cold in-process run over the same edited sources exactly.
	res, err := core.AnalyzeAppCtx(context.Background(),
		analysis.NewMapResolver(mutated), app.Entries, core.Options{})
	if err != nil {
		t.Fatalf("reference AnalyzeAppCtx: %v", err)
	}
	assertSame(t, app.Name+"/incr-edit", res, warm, true)

	// The reuse is visible on the operational surfaces too: /debug/server's
	// incremental section and the sqlciv_incr_* metrics series.
	st := srv.Stats()
	if st.Incremental == nil {
		t.Fatal("server stats carry no incremental section after incremental jobs")
	}
	if st.Incremental.Sessions != 1 {
		t.Errorf("resident sessions = %d, want 1", st.Incremental.Sessions)
	}
	if st.Incremental.PagesReplayed != warm.Stats.IncrPagesReplayed {
		t.Errorf("server pages_replayed = %d, want %d",
			st.Incremental.PagesReplayed, warm.Stats.IncrPagesReplayed)
	}
	if st.Incremental.FilesParsed != cold.Stats.IncrFilesParsed+warm.Stats.IncrFilesParsed {
		t.Errorf("server files_parsed = %d, want %d",
			st.Incremental.FilesParsed, cold.Stats.IncrFilesParsed+warm.Stats.IncrFilesParsed)
	}
	snap := srv.MetricsSnapshot()
	if got := snap["sqlciv_incr_pages_replayed_total"]; got != float64(warm.Stats.IncrPagesReplayed) {
		t.Errorf("sqlciv_incr_pages_replayed_total = %v, want %d", got, warm.Stats.IncrPagesReplayed)
	}
	if got := snap["sqlciv_incr_sessions"]; got != 1 {
		t.Errorf("sqlciv_incr_sessions = %v, want 1", got)
	}
	if got := snap["sqlciv_incr_page_replay_pct"]; got <= 0 {
		t.Errorf("sqlciv_incr_page_replay_pct = %v, want > 0", got)
	}
}

// TestIncrementalSessionEviction pins the session bound: with MaxSessions=1
// a second app evicts the first, whose next submission runs cold again —
// eviction costs warmth, never correctness.
func TestIncrementalSessionEviction(t *testing.T) {
	srv, client := newTestService(t, server.Config{Workers: 1, MaxSessions: 1})
	submit := func(app *corpus.App) *sqlciv.AnalyzeResponse {
		t.Helper()
		res, err := client.Analyze(context.Background(), &sqlciv.AnalyzeRequest{
			Sources: app.Sources, Entries: app.Entries,
			Options: sqlciv.AnalyzeRequestOptions{Incremental: true},
		})
		if err != nil {
			t.Fatalf("incremental Analyze(%s): %v", app.Name, err)
		}
		return res
	}
	first, second := corpus.Warp(), corpus.EVE()
	submit(first)
	submit(second) // evicts first's session under the cap of 1
	again := submit(first)
	if again.Stats.IncrPagesReplayed != 0 {
		t.Errorf("evicted app replayed %d pages, want 0 (cold rebuild)", again.Stats.IncrPagesReplayed)
	}
	st := srv.Stats()
	if st.Incremental == nil {
		t.Fatal("no incremental section")
	}
	if st.Incremental.Sessions != 1 {
		t.Errorf("resident sessions = %d, want 1 under MaxSessions=1", st.Incremental.Sessions)
	}
	if st.Incremental.SessionsEvicted < 2 {
		t.Errorf("sessions evicted = %d, want >= 2", st.Incremental.SessionsEvicted)
	}
}

// TestServedXSS checks the optional XSS audit travels the wire and matches
// the library audit.
func TestServedXSS(t *testing.T) {
	_, client := newTestService(t, server.Config{Workers: 1})
	sources := map[string]string{
		"page.php": `<?php
$name = $_GET['name'];
echo "<div>Hello $name</div>";
mysql_query("SELECT * FROM t WHERE name='$name'");
`,
	}
	res, err := client.Analyze(context.Background(), &sqlciv.AnalyzeRequest{
		Sources: sources,
		Entries: []string{"page.php"},
		Options: sqlciv.AnalyzeRequestOptions{XSS: true},
	})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if len(res.Findings) == 0 {
		t.Error("expected a SQL finding")
	}
	if len(res.XSS) == 0 {
		t.Error("expected an XSS finding")
	}
	if res.Verified {
		t.Error("vulnerable app served as verified")
	}
	for _, f := range res.XSS {
		cf := f.Core()
		if cf.Entry != "page.php" || cf.Check == 0 {
			t.Errorf("bad XSS wire roundtrip: %+v -> %+v", f, cf)
		}
	}
}

// TestDegradedOverWire checks that a budget-limited request degrades to
// explicit analysis-incomplete findings on the wire — never a silent pass —
// and that the wire degradations reconstruct losslessly.
func TestDegradedOverWire(t *testing.T) {
	_, client := newTestService(t, server.Config{Workers: 1})
	app := corpus.Utopia()
	res, err := client.Analyze(context.Background(), &sqlciv.AnalyzeRequest{
		Sources: app.Sources,
		Entries: app.Entries,
		Budget:  sqlciv.AnalyzeRequestBudget{MaxSteps: 50},
	})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if res.Verified {
		t.Fatal("budget-starved run served as verified")
	}
	if res.DegradedPages == 0 && res.DegradedHotspots == 0 {
		t.Fatal("MaxSteps=50 run reported no degradations")
	}
	if len(res.Degradations) == 0 {
		t.Fatal("degraded run carried no degradation details")
	}
	for _, d := range res.Degradations {
		cd := d.Core()
		if cd.Reason.String() != d.ReasonName {
			t.Errorf("degradation reason roundtrip: %d -> %s != %s", d.Reason, cd.Reason, d.ReasonName)
		}
	}
	incomplete := 0
	for _, f := range res.Findings {
		if f.Kind == "unknown" {
			incomplete++
		}
	}
	if incomplete == 0 {
		t.Error("degraded units produced no analysis-incomplete findings")
	}
}

// TestQueueOverflow fills the bounded queue and asserts the structured 429
// with a Retry-After hint.
func TestQueueOverflow(t *testing.T) {
	// 1 worker, queue depth 1: the first job occupies the worker, the
	// second waits, the third must be refused.
	_, client := newTestService(t, server.Config{Workers: 1, QueueDepth: 1})
	app := corpus.Tiger() // big enough to hold the worker for a moment
	sawFull := false
	for i := 0; i < 12 && !sawFull; i++ {
		_, err := client.SubmitJob(context.Background(),
			&sqlciv.AnalyzeRequest{Sources: app.Sources, Entries: app.Entries})
		if err != nil {
			apiErr, ok := err.(*sqlciv.APIError)
			if !ok {
				t.Fatalf("submit %d: unexpected error type %T: %v", i, err, err)
			}
			if apiErr.Status != 429 {
				t.Fatalf("submit %d: status %d, want 429", i, apiErr.Status)
			}
			if apiErr.Code != server.CodeQueueFull {
				t.Fatalf("submit %d: code %q, want %q", i, apiErr.Code, server.CodeQueueFull)
			}
			if apiErr.RetryAfter <= 0 {
				t.Errorf("submit %d: missing Retry-After on 429", i)
			}
			sawFull = true
		}
	}
	if !sawFull {
		t.Fatal("never saw queue-full 429 with 1 worker / depth 1")
	}
}

// TestJobLifecycle covers the async surface: acknowledge, poll, long-poll,
// final report, and unknown-id 404.
func TestJobLifecycle(t *testing.T) {
	_, client := newTestService(t, server.Config{Workers: 1})
	ctx := context.Background()
	app := corpus.EVE()
	st, err := client.SubmitJob(ctx, &sqlciv.AnalyzeRequest{Sources: app.Sources, Entries: app.Entries})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if st.ID == "" {
		t.Fatal("job acknowledged without an id")
	}
	res, err := client.WaitJob(ctx, st.ID)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if res == nil || len(res.Findings) == 0 {
		t.Fatal("EVE served no findings")
	}
	// Completed jobs stay pollable.
	again, err := client.Job(ctx, st.ID, 0)
	if err != nil {
		t.Fatalf("Job after done: %v", err)
	}
	if again.State != server.StateDone || again.Result == nil {
		t.Fatalf("finished job state %q, result nil=%v", again.State, again.Result == nil)
	}
	if _, err := client.Job(ctx, "j-nope", 0); err == nil {
		t.Fatal("unknown job id did not 404")
	} else if apiErr, ok := err.(*sqlciv.APIError); !ok || apiErr.Status != 404 {
		t.Fatalf("unknown job id: %v, want 404 APIError", err)
	}
}

// TestColdRestartServesFromDisk closes a server and starts a new one over
// the same vcache directory: the "restart warm" property — the fresh
// process answers from the persistent tier with zero recomputes.
func TestColdRestartServesFromDisk(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "vc")
	open := func() *vcache.Store {
		store, err := vcache.Open(dir)
		if err != nil {
			t.Fatalf("vcache.Open: %v", err)
		}
		return store
	}
	app := corpus.Warp()
	ref := reference(t, app)

	srv1 := server.New(server.Config{Workers: 1, VerdictCache: open()})
	ts1 := httptest.NewServer(srv1.Handler())
	c1 := sqlciv.NewServiceClient(ts1.URL)
	analyzeSync(t, c1, app)
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatalf("close first server: %v", err)
	}

	srv2 := server.New(server.Config{Workers: 1, VerdictCache: open()})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	defer srv2.Close()
	c2 := sqlciv.NewServiceClient(ts2.URL)
	got := analyzeSync(t, c2, app)
	assertSame(t, app.Name+"/restart-warm", ref, got, true)
	stats := srv2.Stats()
	if stats.DiskCacheHits == 0 {
		t.Errorf("restarted server served %s without disk hits: %+v", app.Name, stats)
	}
	if stats.VerdictCacheMisses != 0 {
		t.Errorf("restarted server recomputed %d hotspots, want 0 (all from disk)", stats.VerdictCacheMisses)
	}
}
