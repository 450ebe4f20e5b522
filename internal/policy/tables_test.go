package policy_test

import (
	"reflect"
	"sync"
	"testing"

	"sqlciv/internal/analysis"
	"sqlciv/internal/corpus"
	"sqlciv/internal/grammar"
	"sqlciv/internal/obs"
	"sqlciv/internal/policy"
	"sqlciv/internal/vcache"
)

// hotspot is one query slice to check: a page grammar and a hotspot root.
type hotspot struct {
	g    *grammar.Grammar
	root grammar.Sym
}

// eveHotspots runs phase 1 over every EVE entry page and returns its
// hotspots in page order.
func eveHotspots(t *testing.T) []hotspot {
	t.Helper()
	app := corpus.EVE()
	r := analysis.NewMapResolver(app.Sources)
	var out []hotspot
	for _, entry := range app.Entries {
		ar, err := analysis.Analyze(r, entry, analysis.Options{})
		if err != nil {
			t.Fatalf("analyze %s: %v", entry, err)
		}
		for _, h := range ar.Hotspots {
			out = append(out, hotspot{ar.G, h.Root})
		}
	}
	if len(out) == 0 {
		t.Fatal("EVE has no hotspots")
	}
	return out
}

// tableSpans counts the "policy"/"tables" spans a tracer emits and records
// their parents. Emit runs under the tracer's lock.
type tableSpans struct{ parents []uint64 }

func (s *tableSpans) Emit(e *obs.Event) {
	if e.Cat == "policy" && e.Name == "tables" {
		s.parents = append(s.parents, e.Parent)
	}
}

func (s *tableSpans) Close() error { return nil }

// check runs one hotspot check under its own hotspot span and returns a
// copy of the result with its wall-clock field cleared (the checker's memo
// may hold the original), plus the span's id.
func check(c *policy.Checker, tr *obs.Tracer, h hotspot) (*policy.Result, uint64) {
	sp := tr.Start("hotspot", "h")
	res := *c.CheckHotspotT(h.g, h.root, nil, sp)
	sp.End()
	res.CheckTime = 0
	return &res, sp.ID()
}

func openStore(t *testing.T, dir string) *vcache.Store {
	t.Helper()
	s, err := vcache.Open(dir)
	if err != nil {
		t.Fatalf("vcache.Open: %v", err)
	}
	return s
}

// TestNoTablesOnCacheHits: a checker answering every call from a verdict
// cache, persistent or in-memory, never acquires the phase-2 tables; New
// itself acquires nothing.
func TestNoTablesOnCacheHits(t *testing.T) {
	hs := eveHotspots(t)
	dir := t.TempDir()
	fill := policy.New()
	fill.Disk = openStore(t, dir)
	want := make([]*policy.Result, len(hs))
	for i, h := range hs {
		want[i] = fill.CheckHotspot(h.g, h.root)
	}
	if err := fill.Disk.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	disk := policy.New()
	if policy.TablesAcquired(disk) {
		t.Fatal("New acquired the phase-2 tables")
	}
	disk.Disk = openStore(t, dir)
	spans := &tableSpans{}
	tr := obs.New(spans)
	for i, h := range hs {
		got, _ := check(disk, tr, h)
		if got.Verdict != want[i].Verdict || len(got.Reports) != len(want[i].Reports) {
			t.Fatalf("hotspot %d: disk hit %v with %d reports, computed %v with %d",
				i, got.Verdict, len(got.Reports), want[i].Verdict, len(want[i].Reports))
		}
		if got.Disk != policy.ProbeHit || got.Memo != policy.NotProbed {
			t.Fatalf("hotspot %d: disk probe %d, memo probe %d; want a disk hit alone", i, got.Disk, got.Memo)
		}
	}
	if policy.TablesAcquired(disk) || len(spans.parents) != 0 {
		t.Fatalf("disk hits acquired the tables (%d policy.tables spans)", len(spans.parents))
	}

	memo := policy.New()
	for i, h := range hs {
		policy.SeedVerdict(memo, h.g, h.root, want[i])
	}
	for i, h := range hs {
		got, _ := check(memo, tr, h)
		if got.Memo != policy.ProbeHit || got.Disk != policy.NotProbed {
			t.Fatalf("hotspot %d: memo probe %d, disk probe %d; want a memo hit alone", i, got.Memo, got.Disk)
		}
		w := *want[i]
		w.CheckTime = 0
		got.Memo, got.Disk = w.Memo, w.Disk
		if !reflect.DeepEqual(got, &w) {
			t.Fatalf("hotspot %d: memo hit %+v, computed %+v", i, got, &w)
		}
	}
	if policy.TablesAcquired(memo) || len(spans.parents) != 0 {
		t.Fatalf("memo hits acquired the tables (%d policy.tables spans)", len(spans.parents))
	}
}

// TestTablesAcquiredOnFirstMiss: the first check that runs the cascade
// acquires the tables, under one policy.tables span below its hotspot span;
// later misses reuse them.
func TestTablesAcquiredOnFirstMiss(t *testing.T) {
	hs := eveHotspots(t)
	c := policy.New()
	spans := &tableSpans{}
	tr := obs.New(spans)
	_, first := check(c, tr, hs[0])
	if !policy.TablesAcquired(c) {
		t.Fatal("a verdict-cache miss did not acquire the tables")
	}
	if len(spans.parents) != 1 || spans.parents[0] != first {
		t.Fatalf("policy.tables spans under parents %v, want one under the hotspot span %d", spans.parents, first)
	}
	misses := 1
	for _, h := range hs[1:] {
		if res, _ := check(c, tr, h); res.Memo == policy.ProbeMiss {
			misses++
		}
	}
	if misses < 2 {
		t.Fatalf("only %d verdict-cache misses; the test needs a second miss", misses)
	}
	if len(spans.parents) != 1 {
		t.Fatalf("%d policy.tables spans after %d checks, want 1", len(spans.parents), len(hs))
	}
}

// TestConcurrentFirstMisses: goroutines whose first calls all miss on one
// fresh checker race to acquire the tables; exactly one acquires them, and
// every goroutine gets the results the cascade computes for each hotspot,
// memo hits included (their probes aside).
func TestConcurrentFirstMisses(t *testing.T) {
	hs := eveHotspots(t)
	want := make([]*policy.Result, len(hs))
	for i, h := range hs {
		want[i], _ = check(policy.New(), nil, h)
		want[i].Memo = 0
	}

	const workers = 8
	c := policy.New()
	spans := &tableSpans{}
	tr := obs.New(spans)
	got := make([][]*policy.Result, workers)
	var start, wg sync.WaitGroup
	start.Add(1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			start.Wait()
			got[w] = make([]*policy.Result, len(hs))
			for k := range hs {
				i := (w + k) % len(hs)
				got[w][i], _ = check(c, tr, hs[i])
				got[w][i].Memo = 0
			}
		}(w)
	}
	start.Done()
	wg.Wait()
	for w := range got {
		if !reflect.DeepEqual(got[w], want) {
			t.Fatalf("worker %d results differ from the sequential checker's", w)
		}
	}
	if len(spans.parents) != 1 {
		t.Fatalf("%d policy.tables spans across %d workers, want 1", len(spans.parents), workers)
	}
}
