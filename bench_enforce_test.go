// bench_enforce_test.go measures and proves out the runtime enforcement
// path: the policy pack compiled from a full analysis run must agree
// bit-for-bit with the in-process automata it serialized (round-trip
// property), must never block a query the analysis itself derived
// (zero false blocks — the pack language over-approximates each hotspot's
// query language), and must answer membership with zero allocations at
// ≥1M queries/sec on one core. BenchmarkEnforce* records the headline
// numbers to BENCH_enforcement.json via make bench-enforce; the
// EXPERIMENTS.md enforcement table comes from that file.
package sqlciv

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"sqlciv/enforce"
	"sqlciv/internal/analysis"
	"sqlciv/internal/automata"
	"sqlciv/internal/core"
	"sqlciv/internal/corpus"
	ienforce "sqlciv/internal/enforce"
)

// hotspotLang is one hotspot's ground truth for enforcement testing: the
// per-page grammar slices whose union the pack automaton over-approximates.
type hotspotLang struct {
	key    string
	slices []ienforce.GrammarSlice
}

// enforceSubject is one corpus app compiled end to end: the analysis run,
// the direct (in-process) automata, the serialized pack, and the loaded
// matcher view of the same bytes.
type enforceSubject struct {
	app   *corpus.App
	res   *core.AppResult
	byKey map[string]*automata.DFA // nil value = unavailable hotspot
	langs []hotspotLang
	data  []byte
	stats core.PackStats
	pack  *enforce.Pack
}

// Subjects are analysis-heavy to build and immutable once built, so one
// instance per app is shared across the tests and benchmarks in this file.
var (
	subjectMu    sync.Mutex
	subjectCache = map[string]*enforceSubject{}
)

func buildEnforceSubject(tb testing.TB, app *corpus.App) *enforceSubject {
	tb.Helper()
	subjectMu.Lock()
	defer subjectMu.Unlock()
	if s, ok := subjectCache[app.Name]; ok {
		return s
	}
	res, err := core.AnalyzeApp(analysis.NewMapResolver(app.Sources), app.Entries, core.Options{})
	if err != nil {
		tb.Fatalf("AnalyzeApp(%s): %v", app.Name, err)
	}
	entries := core.PackEntries(res, core.PackOptions{})
	// Compile the pack from these exact entries (BuildPack would rebuild
	// them): the round-trip property compares the serialized automata
	// against the very objects that produced them.
	data, stats, err := ienforce.Compile(entries)
	if err != nil {
		tb.Fatalf("Compile(%s): %v", app.Name, err)
	}
	pack, err := enforce.Load(data)
	if err != nil {
		tb.Fatalf("Load(%s): %v", app.Name, err)
	}
	s := &enforceSubject{app: app, res: res, data: data, stats: stats, pack: pack,
		byKey: make(map[string]*automata.DFA, len(entries))}
	for _, e := range entries {
		s.byKey[e.Key] = e.Automaton
	}
	seen := map[string]int{}
	for pi := range res.Pages {
		pr := &res.Pages[pi]
		if pr.Degraded != nil || pr.Analysis == nil || pr.Analysis.G == nil {
			continue
		}
		for hi := range pr.Hotspots {
			hr := &pr.Hotspots[hi]
			key := fmt.Sprintf("%s:%d", hr.File, hr.Line)
			idx, ok := seen[key]
			if !ok {
				idx = len(s.langs)
				seen[key] = idx
				s.langs = append(s.langs, hotspotLang{key: key})
			}
			s.langs[idx].slices = append(s.langs[idx].slices,
				ienforce.GrammarSlice{G: pr.Analysis.G, Root: hr.Root})
		}
	}
	subjectCache[app.Name] = s
	return s
}

// legitQueries enumerates in-language queries for one hotspot from its
// grammar slices. The first few are double-checked against the Earley
// ground truth (a full cross-check of every query would spend minutes in
// Earley on the big subjects without adding coverage — Enumerate itself is
// differentially tested in internal/grammar).
func legitQueries(tb testing.TB, l hotspotLang) []string {
	tb.Helper()
	var out []string
	seen := map[string]bool{}
	for _, sl := range l.slices {
		for i, q := range sl.G.Enumerate(sl.Root, 80, 24) {
			if i < 3 && !sl.G.DerivesString(sl.Root, q) {
				tb.Fatalf("%s: Enumerate produced %q but DerivesString rejects it", l.key, q)
			}
			if !seen[q] {
				seen[q] = true
				out = append(out, q)
			}
		}
		if w, ok := sl.G.WitnessString(sl.Root); ok && !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// mutate derives adversarial variants of a legit query: classic injection
// suffixes, quote breaks, truncations, and byte corruptions. None are
// guaranteed to leave the pack language (it over-approximates), but blocked
// ones must be outside every slice's derived language.
func mutate(q string) []string {
	muts := []string{
		q + "'",
		q + "' OR '1'='1",
		q + "; DROP TABLE users--",
		q + " UNION SELECT password FROM users",
		"'" + q,
		strings.ToLower(q),
		q + "\x00",
	}
	if len(q) > 1 {
		muts = append(muts, q[:len(q)/2])
		b := []byte(q)
		b[len(b)/2] ^= 0x80
		muts = append(muts, string(b))
	}
	return muts
}

// TestEnforceRoundTrip: for every Table-1 subject and every available
// hotspot, the pack matcher's verdict is bit-identical to the in-process
// DFA it serialized — over in-language queries, adversarial mutations, and
// the empty string.
func TestEnforceRoundTrip(t *testing.T) {
	for _, app := range corpus.Apps() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			s := buildEnforceSubject(t, app)
			if s.pack.NumHotspots() != len(s.byKey) {
				t.Fatalf("pack has %d hotspots, entries %d", s.pack.NumHotspots(), len(s.byKey))
			}
			checked := 0
			for _, l := range s.langs {
				c := s.byKey[l.key]
				m, ok := s.pack.Hotspot(l.key)
				if !ok {
					t.Fatalf("%s: hotspot missing from pack", l.key)
				}
				if (c == nil) == m.Available() {
					t.Fatalf("%s: direct automaton nil=%v but matcher available=%v",
						l.key, c == nil, m.Available())
				}
				if c == nil {
					continue
				}
				queries := legitQueries(t, l)
				queries = append(queries, "")
				for _, q := range legitQueries(t, l) {
					queries = append(queries, mutate(q)...)
				}
				for _, q := range queries {
					got, want := m.MatchString(q), c.AcceptsString(q)
					if got != want {
						t.Errorf("%s: matcher(%q)=%v but the DFA says %v", l.key, q, got, want)
					}
					if bg := m.Match([]byte(q)); bg != got {
						t.Errorf("%s: Match/MatchString disagree on %q", l.key, q)
					}
					checked++
				}
			}
			if checked == 0 {
				t.Fatalf("%s: no available hotspot exercised", app.Name)
			}
		})
	}
}

// TestEnforceNoFalseBlock: every query the analysis derives for a hotspot
// (the legit witness corpus) passes its matcher — the pack language contains
// the derived language by construction, so enforcement can never block
// traffic the application actually generates. Attack mutations may or may
// not leave the over-approximated language, but every one the matcher
// blocks is provably outside the derived language (Earley ground truth),
// and across the suite the attacks must actually trip blocks.
func TestEnforceNoFalseBlock(t *testing.T) {
	totalLegit, totalBlockedAttacks := 0, 0
	for _, app := range corpus.Apps() {
		s := buildEnforceSubject(t, app)
		for _, l := range s.langs {
			m, _ := s.pack.Hotspot(l.key)
			if !m.Available() {
				continue
			}
			legit := legitQueries(t, l)
			for _, q := range legit {
				totalLegit++
				if !m.MatchString(q) {
					t.Errorf("%s %s: FALSE BLOCK of derived query %q", s.app.Name, l.key, q)
				}
			}
			soundChecked := 0
			for _, q := range legit {
				for _, atk := range mutate(q) {
					if m.MatchString(atk) {
						continue // still inside the over-approximation: allowed
					}
					totalBlockedAttacks++
					// Earley-certify non-derivability for a sample of blocks
					// per hotspot; checking every one would be minutes of
					// Earley for no extra coverage.
					if soundChecked < 2 {
						soundChecked++
						for _, sl := range l.slices {
							if sl.G.DerivesString(sl.Root, atk) {
								t.Errorf("%s %s: blocked query %q is derivable — unsound block",
									s.app.Name, l.key, atk)
							}
						}
					}
				}
			}
		}
	}
	if totalLegit == 0 {
		t.Fatal("no legit queries exercised across the corpus")
	}
	if totalBlockedAttacks == 0 {
		t.Fatal("no attack mutation was blocked anywhere in the corpus — enforcement is vacuous")
	}
	t.Logf("legit queries passed: %d; attack mutations blocked: %d", totalLegit, totalBlockedAttacks)
}

// TestEnforceMatchZeroAlloc: the full per-request path — hotspot lookup,
// membership for an accepted and a rejected query — allocates nothing.
func TestEnforceMatchZeroAlloc(t *testing.T) {
	s := buildEnforceSubject(t, corpus.Tiger())
	var key, hit string
	for _, l := range s.langs {
		if m, _ := s.pack.Hotspot(l.key); m.Available() {
			if qs := legitQueries(t, l); len(qs) > 0 {
				key, hit = l.key, qs[0]
				break
			}
		}
	}
	if key == "" {
		t.Fatal("no available hotspot with a derivable query")
	}
	miss := hit + "' OR '1'='1"
	missBytes := []byte(miss)
	var sink bool
	allocs := testing.AllocsPerRun(500, func() {
		m, _ := s.pack.Hotspot(key)
		sink = m.MatchString(hit) != m.MatchString(miss) != m.Match(missBytes)
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("enforcement hot path allocates: %.1f allocs/op, want 0", allocs)
	}
}

// benchPairs builds the benchmark's query mix for one subject: every legit
// query plus its attack mutations, tagged with the hotspot key, and the
// false-block rate over the legit subset (must be 0).
type benchPair struct {
	key   string
	query string
}

func benchCorpus(tb testing.TB, s *enforceSubject) (pairs []benchPair, falseBlockPct float64) {
	tb.Helper()
	legitTotal, legitBlocked := 0, 0
	for _, l := range s.langs {
		m, _ := s.pack.Hotspot(l.key)
		if !m.Available() {
			continue
		}
		legit := legitQueries(tb, l)
		for _, q := range legit {
			legitTotal++
			if !m.MatchString(q) {
				legitBlocked++
			}
			pairs = append(pairs, benchPair{l.key, q})
			for _, atk := range mutate(q) {
				pairs = append(pairs, benchPair{l.key, atk})
			}
		}
	}
	if len(pairs) == 0 {
		tb.Fatal("empty benchmark corpus")
	}
	if legitTotal > 0 {
		falseBlockPct = 100 * float64(legitBlocked) / float64(legitTotal)
	}
	return pairs, falseBlockPct
}

// BenchmarkEnforceMatch is the headline enforcement number: queries/sec
// through the full per-request path (binary-search hotspot lookup + matcher
// walk) over a mixed legit/attack corpus on the Tiger subject. Custom
// metrics: queries/s (target ≥1e6 single-core), ns/qbyte (per query byte),
// pack-B (serialized pack size), false-block-pct (over the legit corpus —
// must be 0).
func BenchmarkEnforceMatch(b *testing.B) {
	s := buildEnforceSubject(b, corpus.Tiger())
	pairs, falseBlockPct := benchCorpus(b, s)
	b.ReportAllocs()
	b.ResetTimer()
	var blocked, bytesDone int
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		m, _ := s.pack.Hotspot(p.key)
		if !m.MatchString(p.query) {
			blocked++
		}
		bytesDone += len(p.query)
	}
	b.StopTimer()
	_ = blocked
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "queries/s")
	}
	if bytesDone > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(bytesDone), "ns/qbyte")
	}
	b.ReportMetric(float64(len(s.data)), "pack-B")
	b.ReportMetric(falseBlockPct, "false-block-pct")
}

// BenchmarkEnforceCompile measures pack compilation itself — the cost
// sqlcheck -emit-pack and the daemon's /v1/pack add on top of an analysis
// run (grammar→NFA flattening, capped determinization, minimization,
// serialization).
func BenchmarkEnforceCompile(b *testing.B) {
	app := corpus.Tiger()
	res, err := core.AnalyzeApp(analysis.NewMapResolver(app.Sources), app.Entries, core.Options{})
	if err != nil {
		b.Fatalf("AnalyzeApp: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var data []byte
	var stats core.PackStats
	for i := 0; i < b.N; i++ {
		data, stats, err = core.BuildPack(res, core.PackOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(data)), "pack-B")
	b.ReportMetric(float64(stats.Hotspots), "hotspots")
	b.ReportMetric(float64(stats.States), "states")
}
