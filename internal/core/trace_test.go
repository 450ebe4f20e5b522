package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"sqlciv/internal/analysis"
	"sqlciv/internal/budget"
	"sqlciv/internal/corpus"
	"sqlciv/internal/incr"
	"sqlciv/internal/obs"
	"sqlciv/internal/vcache"
)

// traceApp runs an app under a tracer with both sinks attached and returns
// the result plus the decoded JSONL events and the raw Chrome trace bytes.
func traceApp(t *testing.T, sources map[string]string, entries []string, opts Options) (*AppResult, []obs.Event, []byte) {
	t.Helper()
	var jl, ch bytes.Buffer
	jsink := obs.NewJSONLSink(&jl)
	csink := obs.NewChromeSink(&ch)
	opts.Tracer = obs.New(jsink, csink)
	res, err := AnalyzeApp(analysis.NewMapResolver(sources), entries, opts)
	if err != nil {
		t.Fatalf("AnalyzeApp: %v", err)
	}
	if err := jsink.Close(); err != nil {
		t.Fatalf("close jsonl sink: %v", err)
	}
	if err := csink.Close(); err != nil {
		t.Fatalf("close chrome sink: %v", err)
	}
	events, err := obs.DecodeJSONL(&jl)
	if err != nil {
		t.Fatalf("decode jsonl: %v", err)
	}
	return res, events, ch.Bytes()
}

var tracedSources = map[string]string{
	"vuln.php": `<?php
$id = $_GET['id'];
mysql_query("SELECT * FROM t WHERE name='$id'");
`,
	"safe.php": `<?php
$id = addslashes($_GET['id']);
mysql_query("SELECT * FROM t WHERE name='$id'");
`,
}

func TestTracedRunSpans(t *testing.T) {
	res, events, _ := traceApp(t, tracedSources, []string{"vuln.php", "safe.php"}, Options{})
	if len(res.Findings) != 1 {
		t.Fatalf("findings: %v", res.Findings)
	}

	byID := map[uint64]obs.Event{}
	byName := map[string][]obs.Event{}
	for _, ev := range events {
		byID[ev.ID] = ev
		byName[ev.Name] = append(byName[ev.Name], ev)
	}

	// One page span per entry, one hotspot span per hotspot, phase spans.
	if n := len(byName["vuln.php"]) + len(byName["safe.php"]); n != 2 {
		t.Fatalf("want 2 page spans, got %d", n)
	}
	if len(byName["string-analysis"]) != 1 || len(byName["policy-check"]) != 1 {
		t.Fatal("missing phase spans")
	}
	hotspots := 0
	for _, ev := range events {
		if ev.Cat == "hotspot" {
			hotspots++
			if ev.Parent != byName["policy-check"][0].ID {
				t.Fatalf("hotspot span %d not under policy-check phase", ev.ID)
			}
		}
	}
	if hotspots != 2 {
		t.Fatalf("want 2 hotspot spans, got %d", hotspots)
	}

	// Cascade checks appear as children of hotspot spans.
	sawCheck := false
	for _, ev := range events {
		if ev.Cat == "check" {
			sawCheck = true
			parent, ok := byID[ev.Parent]
			if !ok || parent.Cat != "hotspot" {
				t.Fatalf("check span %q parent is not a hotspot span", ev.Name)
			}
		}
	}
	if !sawCheck {
		t.Fatal("no cascade check spans recorded")
	}

	// The finding's span id resolves to the hotspot span at its location.
	f := res.Findings[0]
	ev, ok := byID[f.SpanID]
	if !ok {
		t.Fatalf("finding span id %d not in trace", f.SpanID)
	}
	if ev.Cat != "hotspot" || !strings.HasPrefix(ev.Name, "vuln.php:") {
		t.Fatalf("finding span resolves to %s/%s", ev.Cat, ev.Name)
	}
	if ev.Attrs["verdict"] != "vulnerable" {
		t.Fatalf("finding span verdict attr = %q", ev.Attrs["verdict"])
	}

	// Counters from the engines reached the run totals.
	counters := sumCounters(events)
	for _, key := range []string{"grammar.nts", "grammar.prods", "rels.pops", "policy.labeled-nts"} {
		if counters[key] <= 0 {
			t.Fatalf("counter %q missing from trace (have %v)", key, counters)
		}
	}
}

// sumCounters totals the per-span counters across all events.
func sumCounters(events []obs.Event) map[string]int64 {
	sum := map[string]int64{}
	for _, ev := range events {
		for k, v := range ev.Counters {
			sum[k] += v
		}
	}
	return sum
}

func TestTracedDegradedHotspotSpanID(t *testing.T) {
	res, events, _ := traceApp(t, tracedSources, []string{"vuln.php", "safe.php"}, Options{
		BeforeHotspotCheck: func(analysis.Hotspot) { panic("injected fault") },
	})
	if res.DegradedHotspots != 2 {
		t.Fatalf("degraded hotspots: %d", res.DegradedHotspots)
	}
	byID := map[uint64]obs.Event{}
	for _, ev := range events {
		byID[ev.ID] = ev
	}
	for _, d := range res.Degradations {
		ev, ok := byID[d.SpanID]
		if !ok {
			t.Fatalf("degradation span id %d not in trace", d.SpanID)
		}
		if ev.Attrs["degraded"] != budget.ReasonPanic.String() {
			t.Fatalf("degraded span attr = %q", ev.Attrs["degraded"])
		}
	}
	for _, f := range res.Findings {
		if _, ok := byID[f.SpanID]; !ok {
			t.Fatalf("incomplete finding span id %d not in trace", f.SpanID)
		}
	}
}

func TestTracedParallelLanes(t *testing.T) {
	res, events, chrome := traceApp(t, tracedSources, []string{"vuln.php", "safe.php"},
		Options{Parallel: 2, ParallelHotspots: 2})
	if len(res.Findings) != 1 {
		t.Fatalf("findings: %v", res.Findings)
	}
	maxLane := 0
	for _, ev := range events {
		if ev.Lane > maxLane {
			maxLane = ev.Lane
		}
	}
	if maxLane > 1 {
		t.Fatalf("2 workers must use at most 2 lanes, saw lane %d", maxLane)
	}
	// The Chrome trace must parse as one JSON document.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &doc); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace empty")
	}
}

func TestTracedRunMatchesUntraced(t *testing.T) {
	plain := analyzeApp(t, tracedSources, []string{"vuln.php", "safe.php"})
	traced, _, _ := traceApp(t, tracedSources, []string{"vuln.php", "safe.php"}, Options{})
	if len(plain.Findings) != len(traced.Findings) {
		t.Fatalf("tracing changed findings: %d vs %d", len(plain.Findings), len(traced.Findings))
	}
	for i := range plain.Findings {
		p, q := plain.Findings[i], traced.Findings[i]
		p.SpanID, q.SpanID = 0, 0
		if p != q {
			t.Fatalf("finding %d differs: %v vs %v", i, p, q)
		}
	}
}

func TestProgressSnapshot(t *testing.T) {
	var jl bytes.Buffer
	tr := obs.New(obs.NewJSONLSink(&jl))
	res, err := AnalyzeApp(analysis.NewMapResolver(tracedSources),
		[]string{"vuln.php", "safe.php"}, Options{Tracer: tr})
	if err != nil {
		t.Fatalf("AnalyzeApp: %v", err)
	}
	snap := tr.Progress()
	if snap.PagesTotal != 2 || snap.PagesDone != 2 {
		t.Fatalf("pages progress: %+v", snap)
	}
	if snap.HotspotsTotal != 2 || snap.HotspotsDone != 2 {
		t.Fatalf("hotspots progress: %+v", snap)
	}
	if snap.Findings != int64(len(res.Findings)) {
		t.Fatalf("findings progress: %+v vs %d", snap, len(res.Findings))
	}
}

// check5Sink totals the Earley counters of check-5 spans ("check" spans
// named "5:…") and counts the spans.
type check5Sink struct {
	spans         int
	parses, items int64
}

func (s *check5Sink) Emit(e *obs.Event) {
	if e.Cat != "check" || !strings.HasPrefix(e.Name, "5:") {
		return
	}
	s.spans++
	s.parses += e.Counters["earley.parses"]
	s.items += e.Counters["earley.items"]
}

func (s *check5Sink) Close() error { return nil }

// TestTigerCheck5EarleyWork pins the work check 5 does on the corpus: a
// cold Tiger run reaches derivability three times, and the Earley parses
// and admitted items those calls report are exact. A parser rewrite that
// claims the same item sets must leave both totals unchanged.
func TestTigerCheck5EarleyWork(t *testing.T) {
	app := corpus.Tiger()
	sink := &check5Sink{}
	tr := obs.New(sink)
	if _, err := AnalyzeApp(analysis.NewMapResolver(app.Sources), app.Entries, Options{Tracer: tr}); err != nil {
		t.Fatalf("AnalyzeApp: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("close tracer: %v", err)
	}
	const wantSpans, wantParses, wantItems = 3, 13122, 1974617
	if sink.spans != wantSpans || sink.parses != wantParses || sink.items != wantItems {
		t.Fatalf("check 5 on Tiger: %d spans, %d parses, %d items; want %d, %d, %d",
			sink.spans, sink.parses, sink.items, wantSpans, wantParses, wantItems)
	}
}

// witnessSink counts "witness" spans and totals the intersection counters
// of every span.
type witnessSink struct {
	spans        int
	items, rules int64
}

func (s *witnessSink) Emit(e *obs.Event) {
	if e.Cat == "witness" {
		s.spans++
	}
	s.items += e.Counters["intersect.items"]
	s.rules += e.Counters["intersect.rules"]
}

func (s *witnessSink) Close() error { return nil }

// TestTigerWitnessWork pins the work witness extraction does on the corpus:
// a cold Tiger run extracts 8 witnesses, whose Figure 7 worklists discover
// 33,192 items over 14,879 normalized rules, and under a step budget too
// large to trip its hotspot checks consume an exact step count. A witness
// rewrite that claims unchanged discovery must leave all four unchanged.
// The step count includes each hotspot's slice-key pass, one step per slice
// nonterminal and production: 12,198 + 38,040 of the 2,961,749.
func TestTigerWitnessWork(t *testing.T) {
	app := corpus.Tiger()
	sink := &witnessSink{}
	tr := obs.New(sink)
	res, err := AnalyzeApp(analysis.NewMapResolver(app.Sources), app.Entries,
		Options{Tracer: tr, Budget: budget.Limits{MaxSteps: 1 << 40}})
	if err != nil {
		t.Fatalf("AnalyzeApp: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("close tracer: %v", err)
	}
	const wantSpans, wantItems, wantRules, wantSteps = 8, 33192, 14879, 2961749
	if sink.spans != wantSpans || sink.items != wantItems || sink.rules != wantRules || res.BudgetSteps != wantSteps {
		t.Fatalf("witnesses on Tiger: %d spans, %d items, %d rules, %d budget steps; want %d, %d, %d, %d",
			sink.spans, sink.items, sink.rules, res.BudgetSteps, wantSpans, wantItems, wantRules, wantSteps)
	}
}

// tablesSink counts "policy"/"tables" spans and records whether each one
// sits directly below a hotspot span.
type tablesSink struct {
	hotspots map[uint64]bool
	parents  []uint64
}

func (s *tablesSink) Emit(e *obs.Event) {
	switch {
	case e.Cat == "hotspot":
		s.hotspots[e.ID] = true
	case e.Cat == "policy" && e.Name == "tables":
		s.parents = append(s.parents, e.Parent)
	}
}

func (s *tablesSink) Close() error { return nil }

// TestPhase2TablesSpan pins when a run acquires the phase-2 tables: a cold
// EVE run once, under a hotspot span; a run whose every hotspot hits the
// persistent verdict cache never; and a fresh session that replays every
// page from the summary store never.
func TestPhase2TablesSpan(t *testing.T) {
	app := corpus.EVE()
	run := func(label string, opts Options) (*AppResult, *tablesSink) {
		t.Helper()
		sink := &tablesSink{hotspots: map[uint64]bool{}}
		opts.Tracer = obs.New(sink)
		res, err := AnalyzeApp(analysis.NewMapResolver(app.Sources), app.Entries, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if err := opts.Tracer.Close(); err != nil {
			t.Fatalf("%s: close tracer: %v", label, err)
		}
		return res, sink
	}
	cacheDir := t.TempDir()
	vc, err := vcache.Open(cacheDir)
	if err != nil {
		t.Fatalf("vcache.Open: %v", err)
	}
	summaries, err := incr.Open(t.TempDir())
	if err != nil {
		t.Fatalf("incr.Open: %v", err)
	}
	cold, sink := run("cold", Options{VerdictCache: vc,
		Session: NewSession(SessionConfig{Summaries: summaries})})
	if len(sink.parents) != 1 || !sink.hotspots[sink.parents[0]] {
		t.Fatalf("cold run: %d policy.tables spans (parents %v), want 1 under a hotspot span",
			len(sink.parents), sink.parents)
	}
	if err := vc.Flush(); err != nil {
		t.Fatalf("vcache flush: %v", err)
	}
	if err := summaries.Flush(); err != nil {
		t.Fatalf("summary flush: %v", err)
	}

	vc2, err := vcache.Open(cacheDir)
	if err != nil {
		t.Fatalf("vcache.Open: %v", err)
	}
	warm, sink := run("warm", Options{VerdictCache: vc2})
	if warm.DiskCacheHits == 0 || warm.DiskCacheMisses != 0 {
		t.Fatalf("warm run: %d disk hits, %d misses; want all hits", warm.DiskCacheHits, warm.DiskCacheMisses)
	}
	if len(sink.parents) != 0 {
		t.Fatalf("warm all-hit run recorded %d policy.tables spans, want 0", len(sink.parents))
	}

	replay, sink := run("replay", Options{Session: NewSession(SessionConfig{Summaries: summaries})})
	if replay.Incr == nil || replay.Incr.PagesRecomputed != 0 {
		t.Fatalf("store replay recomputed pages: %+v", replay.Incr)
	}
	if len(sink.parents) != 0 {
		t.Fatalf("store replay recorded %d policy.tables spans, want 0", len(sink.parents))
	}
	for _, res := range []*AppResult{warm, replay} {
		if !reflect.DeepEqual(stripSpans(res.Findings), stripSpans(cold.Findings)) {
			t.Fatalf("findings diverged from the cold run:\n%+v\n%+v", res.Findings, cold.Findings)
		}
	}
}

// stripSpans returns findings with their trace span ids cleared, as a run
// that opened no spans for them reports them.
func stripSpans(fs []Finding) []Finding {
	out := append([]Finding(nil), fs...)
	for i := range out {
		out[i].SpanID = 0
	}
	return out
}
