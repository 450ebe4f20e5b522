package policy

import (
	"context"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sqlciv/internal/budget"
	"sqlciv/internal/grammar"
	"sqlciv/internal/vcache"
)

// openStore opens a fresh vcache store under t.TempDir.
func openStore(t *testing.T, dir string) *vcache.Store {
	t.Helper()
	store, err := vcache.Open(dir)
	if err != nil {
		t.Fatalf("vcache.Open: %v", err)
	}
	return store
}

// sameReports requires a persisted verdict's reports to equal the computed
// ones.
func sameReports(t *testing.T, computed, cached []Report) {
	t.Helper()
	if !reflect.DeepEqual(computed, cached) {
		t.Errorf("reports diverged:\ncomputed %+v\ncached   %+v", computed, cached)
	}
}

// cacheFiles lists the entry files a flushed store left on disk.
func cacheFiles(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".json") {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatalf("walk %s: %v", dir, err)
	}
	return files
}

func TestDiskCacheRoundTripIdenticalReports(t *testing.T) {
	dir := t.TempDir()
	g, root := buildQuery(false, "X", "'")

	cold := New()
	cold.Disk = openStore(t, dir)
	computed := cold.CheckHotspot(g, root)
	if computed.Verdict != VerdictVulnerable {
		t.Fatalf("fixture must be vulnerable, got %v", computed.Verdict)
	}
	if err := cold.Disk.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	warm := New()
	warm.Disk = openStore(t, dir)
	cached := warm.CheckHotspot(g, root)
	if cached.Disk != ProbeHit || cached.Memo != NotProbed {
		t.Fatalf("probes: disk %v, memo %v; want a disk hit and no memo probe", cached.Disk, cached.Memo)
	}
	if cached.Verdict != computed.Verdict || cached.LabeledNTs != computed.LabeledNTs {
		t.Fatalf("cached verdict %v/%d, computed %v/%d",
			cached.Verdict, cached.LabeledNTs, computed.Verdict, computed.LabeledNTs)
	}
	sameReports(t, computed.Reports, cached.Reports)

	// The entry carries the slice census, so stats stay meaningful on
	// fully-warm runs that compact nothing.
	if cached.SliceCensus != computed.SliceCensus {
		t.Errorf("disk hit census %+v, computed %+v", cached.SliceCensus, computed.SliceCensus)
	}
}

// TestCacheHitsReportTheirOwnBudget: a memo or disk hit reports the budget
// its own check consumed, the slice key's pass (one step per slice
// nonterminal and production), not what the check that computed the
// verdict consumed.
func TestCacheHitsReportTheirOwnBudget(t *testing.T) {
	g, root := buildQuery(false, "X", "'")
	limits := budget.Limits{MaxSteps: 1 << 20}
	run := func(c *Checker) (*Result, *budget.Budget) {
		b := budget.New(context.Background(), limits)
		return c.CheckHotspotT(g, root, b, nil), b
	}
	dir := t.TempDir()
	fill := New()
	fill.Disk = openStore(t, dir)
	computed, _ := run(fill)
	keyPass := int64(computed.SliceNTs + computed.SliceProds)
	if computed.BudgetSteps <= keyPass || computed.BudgetMemHigh == 0 {
		t.Fatalf("computing check used %d steps and %d bytes; want more than the key pass's %d steps, and some memory",
			computed.BudgetSteps, computed.BudgetMemHigh, keyPass)
	}
	if err := fill.Disk.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	memo := New()
	run(memo)
	disk := New()
	disk.Disk = openStore(t, dir)
	for _, hit := range []struct {
		name       string
		c          *Checker
		memo, disk Probe
	}{
		{"memo", memo, ProbeHit, NotProbed},
		{"disk", disk, NotProbed, ProbeHit},
	} {
		res, b := run(hit.c)
		if res.Memo != hit.memo || res.Disk != hit.disk {
			t.Fatalf("%s: memo probe %v, disk probe %v; want %v, %v", hit.name, res.Memo, res.Disk, hit.memo, hit.disk)
		}
		if res.BudgetSteps != b.Steps() || res.BudgetMemHigh != b.MemHigh() {
			t.Errorf("%s hit reports %d steps and %d bytes; its budget used %d and %d",
				hit.name, res.BudgetSteps, res.BudgetMemHigh, b.Steps(), b.MemHigh())
		}
		if res.BudgetSteps != keyPass {
			t.Errorf("%s hit used %d steps, want the key pass's %d", hit.name, res.BudgetSteps, keyPass)
		}
	}
}

// selectThenX builds q → S1 S2 X, or with nested q → P X and P → S1 S2, where
// S1 derives "SELECT a" … "SELECT e", S2 " FROM t WHERE c=" … " FROM w WHERE
// c=" and X, labeled direct, "abc". Both compact to one form, yet only the
// flat slice passes check 5.
func selectThenX(nested bool) (*grammar.Grammar, grammar.Sym) {
	g := grammar.New()
	q := g.NewNT("q")
	s1 := g.NewNT("S1")
	for _, c := range "abcde" {
		g.AddString(s1, "SELECT "+string(c))
	}
	s2 := g.NewNT("S2")
	for _, tab := range "tuvw" {
		g.AddString(s2, " FROM "+string(tab)+" WHERE c=")
	}
	x := g.NewNT("X")
	g.AddLabel(x, grammar.Direct)
	g.AddString(x, "abc")
	if nested {
		p := g.NewNT("P")
		g.Add(p, s1, s2)
		g.Add(q, p, x)
	} else {
		g.Add(q, s1, s2, x)
	}
	g.SetStart(q)
	return g, q
}

// quotedChain builds WHERE a='<X>' with X → direct | Y, Y → Z, Z → chained
// and X labeled direct. Swapping the two strings keeps the compacted form,
// X → "a'" | "b'", but changes the witness, which the shorter derivation
// gives.
func quotedChain(direct, chained string) (*grammar.Grammar, grammar.Sym) {
	g := grammar.New()
	q := g.NewNT("q")
	x := g.NewNT("X")
	y := g.NewNT("Y")
	z := g.NewNT("Z")
	g.AddLabel(x, grammar.Direct)
	g.AddString(x, direct)
	g.Add(x, y)
	g.Add(y, z)
	g.AddString(z, chained)
	rhs := grammar.TermString("SELECT * FROM t WHERE a='")
	rhs = append(rhs, x, grammar.T('\''))
	g.Add(q, rhs...)
	g.SetStart(q)
	return g, q
}

// TestDiskHitReturnsTheSlicesOwnVerdict: a verdict is a function of the
// slice, not of its compacted form, because check 5 and witness selection
// run on the original slice. Each pair below shares its compacted
// fingerprint, but not its slice key, and cold checks of the two disagree.
// A checker over a store that the other slice filled returns exactly what
// the cold check of its own slice computes: verdict, reports in order,
// witnesses and census.
func TestDiskHitReturnsTheSlicesOwnVerdict(t *testing.T) {
	type build func() (*grammar.Grammar, grammar.Sym)
	for _, pair := range []struct {
		name string
		a, b build
	}{
		{"check 5", func() (*grammar.Grammar, grammar.Sym) { return selectThenX(true) },
			func() (*grammar.Grammar, grammar.Sym) { return selectThenX(false) }},
		{"witness", func() (*grammar.Grammar, grammar.Sym) { return quotedChain("a'", "b'") },
			func() (*grammar.Grammar, grammar.Sym) { return quotedChain("b'", "a'") }},
	} {
		t.Run(pair.name, func(t *testing.T) {
			ga, ra := pair.a()
			gb, rb := pair.b()
			ca, _ := grammar.CompactSlice(ga, ra, nil)
			cb, _ := grammar.CompactSlice(gb, rb, nil)
			if ca.G.Fingerprint(ca.Top) != cb.G.Fingerprint(cb.Top) {
				t.Fatal("the pair's compacted fingerprints differ")
			}
			if ga.SliceKey(ra, nil) == gb.SliceKey(rb, nil) {
				t.Fatal("the pair shares a slice key")
			}
			if reflect.DeepEqual(Answer(New().CheckHotspot(ga, ra)), Answer(New().CheckHotspot(gb, rb))) {
				t.Fatal("cold checks of the pair agree; the pair tests nothing")
			}
			for _, order := range [][2]build{{pair.a, pair.b}, {pair.b, pair.a}} {
				g, root := order[0]()
				want := New().CheckHotspot(g, root)
				dir := t.TempDir()
				fill := New()
				fill.Disk = openStore(t, dir)
				other, oroot := order[1]()
				fill.CheckHotspot(other, oroot)
				if err := fill.Disk.Flush(); err != nil {
					t.Fatalf("Flush: %v", err)
				}
				warm := New()
				warm.Disk = openStore(t, dir)
				got := warm.CheckHotspot(g, root)
				if got, want := Answer(got), Answer(want); !reflect.DeepEqual(got, want) {
					t.Errorf("over the other slice's store: %+v; cold check: %+v", got, want)
				}
			}
		})
	}
}

func TestDiskCacheVerifiedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g, root := buildQuery(false, "X", "ok")

	cold := New()
	cold.Disk = openStore(t, dir)
	computed := cold.CheckHotspot(g, root)
	if computed.Verdict != VerdictVerified {
		t.Fatalf("fixture must verify, got %v", computed.Verdict)
	}
	if err := cold.Disk.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	warm := New()
	warm.Disk = openStore(t, dir)
	cached := warm.CheckHotspot(g, root)
	if cached.Disk != ProbeHit {
		t.Fatal("verified verdict must round-trip through the disk cache")
	}
	if !cached.Verified || cached.Verdict != VerdictVerified || len(cached.Reports) != 0 {
		t.Fatalf("cached verdict = %+v, want verified", cached)
	}
}

// TestDiskCacheCorruptEntryRecomputes locks the failure mode for a damaged
// cache: every corrupt entry is an ordinary miss, the verdict is recomputed,
// and the result matches a cold run exactly.
func TestDiskCacheCorruptEntryRecomputes(t *testing.T) {
	dir := t.TempDir()
	g, root := buildQuery(false, "X", "'")

	cold := New()
	cold.Disk = openStore(t, dir)
	computed := cold.CheckHotspot(g, root)
	if err := cold.Disk.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	files := cacheFiles(t, dir)
	if len(files) == 0 {
		t.Fatal("cold run must write cache entries")
	}
	for _, f := range files {
		if err := os.WriteFile(f, []byte("not json {"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	warm := New()
	warm.Disk = openStore(t, dir)
	recomputed := warm.CheckHotspot(g, root)
	if recomputed.Disk != ProbeMiss || recomputed.Memo != ProbeMiss {
		t.Fatalf("probes: disk %v, memo %v; want two misses", recomputed.Disk, recomputed.Memo)
	}
	if warm.Disk.CacheStats().Errors == 0 {
		t.Error("corrupt entry must be counted in Stats.Errors")
	}
	if recomputed.Verdict != computed.Verdict {
		t.Fatalf("recomputed verdict %v, computed %v", recomputed.Verdict, computed.Verdict)
	}
	sameReports(t, computed.Reports, recomputed.Reports)
}

// TestDiskCacheStaleTagRecomputes simulates a policy-version bump: entries
// whose tag does not match CacheVersion are ignored, never trusted.
func TestDiskCacheStaleTagRecomputes(t *testing.T) {
	dir := t.TempDir()
	g, root := buildQuery(false, "X", "'")

	cold := New()
	cold.Disk = openStore(t, dir)
	computed := cold.CheckHotspot(g, root)
	if err := cold.Disk.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	for _, f := range cacheFiles(t, dir) {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var e map[string]any
		if err := json.Unmarshal(data, &e); err != nil {
			t.Fatal(err)
		}
		e["tag"] = "sqlciv-policy-v0-obsolete"
		out, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(f, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	warm := New()
	warm.Disk = openStore(t, dir)
	recomputed := warm.CheckHotspot(g, root)
	if recomputed.Disk != ProbeMiss {
		t.Fatalf("disk probe %v, want a miss", recomputed.Disk)
	}
	if recomputed.Verdict != computed.Verdict {
		t.Fatalf("recomputed verdict %v, computed %v", recomputed.Verdict, computed.Verdict)
	}
	sameReports(t, computed.Reports, recomputed.Reports)
}

// TestDegradedVerdictNotPersisted: a budget-tripped check yields
// VerdictUnknown, which must never be written to disk — a retry with a
// larger budget could succeed, and a cached unknown would pin the
// degradation forever.
func TestDegradedVerdictNotPersisted(t *testing.T) {
	dir := t.TempDir()
	g, root := buildQuery(false, "X", "'")

	c := New()
	c.Disk = openStore(t, dir)
	b := budget.New(context.Background(), budget.Limits{MaxSteps: 1})
	res := c.CheckHotspotT(g, root, b, nil)
	if res.Verdict != VerdictUnknown {
		t.Fatalf("tiny budget must degrade the check, got %v", res.Verdict)
	}
	if err := c.Disk.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if files := cacheFiles(t, dir); len(files) != 0 {
		t.Fatalf("degraded verdict must not be persisted; found %d entries", len(files))
	}

	// The same store answers a later unbudgeted run with the real verdict.
	retry := New()
	retry.Disk = openStore(t, dir)
	full := retry.CheckHotspot(g, root)
	if full.Verdict != VerdictVulnerable {
		t.Fatalf("retry verdict %v, want vulnerable", full.Verdict)
	}
}

// TestDiskCacheUnifiesAlphaRenamedOriginals: the persistent cache is keyed
// by the slice key, which is invariant under renumbering, so an α-renamed
// copy of a hotspot answers from an entry its twin wrote.
func TestDiskCacheUnifiesAlphaRenamedOriginals(t *testing.T) {
	dir := t.TempDir()
	g1, r1 := buildQuery(false, "X", "'")
	g2, r2 := buildQuery(true, "X", "'")

	cold := New()
	cold.Disk = openStore(t, dir)
	computed := cold.CheckHotspot(g1, r1)
	if err := cold.Disk.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	warm := New()
	warm.Disk = openStore(t, dir)
	cached := warm.CheckHotspot(g2, r2)
	if cached.Disk != ProbeHit {
		t.Fatal("α-renamed original must hit the slice-key cache")
	}
	sameReports(t, computed.Reports, cached.Reports)
}

// TestNilDiskMatchesNoCache: a Checker without a store behaves exactly like
// one whose store never hits (the -no-cache path).
func TestNilDiskMatchesNoCache(t *testing.T) {
	g, root := buildQuery(false, "X", "'")
	plain := New().CheckHotspot(g, root)
	withStore := New()
	withStore.Disk = openStore(t, t.TempDir())
	stored := withStore.CheckHotspot(g, root)
	if plain.Verdict != stored.Verdict {
		t.Fatalf("verdicts diverged: %v vs %v", plain.Verdict, stored.Verdict)
	}
	if len(plain.Reports) != len(stored.Reports) {
		t.Fatalf("report counts diverged: %d vs %d", len(plain.Reports), len(stored.Reports))
	}
	for i := range plain.Reports {
		if plain.Reports[i] != stored.Reports[i] {
			t.Errorf("report %d diverged: %+v vs %+v", i, plain.Reports[i], stored.Reports[i])
		}
	}
}
