package sqlciv

import (
	"reflect"
	"testing"

	"sqlciv/internal/analysis"
	"sqlciv/internal/corpus"
	"sqlciv/internal/grammar"
	"sqlciv/internal/policy"
	"sqlciv/internal/xss"
)

// sliceLayout is the per-nonterminal production layout the arena replaced:
// nonterminal i's right-hand sides as independent slices, in order.
type sliceLayout struct {
	names  []string
	labels []grammar.Label
	prods  [][][]grammar.Sym
}

// layoutOf copies g's productions out of the arena through Rhs.
func layoutOf(g *grammar.Grammar) sliceLayout {
	n := g.NumNTs()
	l := sliceLayout{names: make([]string, n), labels: make([]grammar.Label, n), prods: make([][][]grammar.Sym, n)}
	for i := 0; i < n; i++ {
		nt := grammar.Sym(grammar.NumTerminals + i)
		l.names[i] = g.RawName(nt)
		l.labels[i] = g.LabelOf(nt)
		for pi := 0; pi < g.NumProdsOf(nt); pi++ {
			l.prods[i] = append(l.prods[i], append([]grammar.Sym{}, g.Rhs(nt, pi)...))
		}
	}
	return l
}

// build materializes l as a fresh grammar, one Add per production in the
// recorded order, so the rebuilt arena has none of the original's history
// (AddString interning, cleared productions, in-place rewrites).
func (l sliceLayout) build() *grammar.Grammar {
	g := grammar.New()
	for i, name := range l.names {
		g.SetLabel(g.NewNT(name), l.labels[i])
	}
	for i, rhss := range l.prods {
		for _, rhs := range rhss {
			g.Add(grammar.Sym(grammar.NumTerminals+i), rhs...)
		}
	}
	return g
}

// arenaRoundTrip checks that every arena read path of an analyzed page
// grammar agrees with the slice layout copied out of it — ForEachProd, the
// slice layout of a grammar rebuilt from it, Extract from each root (which
// shares interned regions by reference) and the canonical fingerprint — and
// returns the rebuilt grammar.
func arenaRoundTrip(t *testing.T, where string, g *grammar.Grammar, roots []grammar.Sym) *grammar.Grammar {
	t.Helper()
	want := layoutOf(g)
	visited := make([][][]grammar.Sym, g.NumNTs())
	g.ForEachProd(func(lhs grammar.Sym, rhs []grammar.Sym) {
		i := int(lhs) - grammar.NumTerminals
		visited[i] = append(visited[i], append([]grammar.Sym{}, rhs...))
	})
	if !reflect.DeepEqual(visited, want.prods) {
		t.Errorf("%s: ForEachProd and Rhs disagree on the productions", where)
	}
	rebuilt := want.build()
	if got := layoutOf(rebuilt); !reflect.DeepEqual(got, want) || rebuilt.NumProds() != g.NumProds() {
		t.Errorf("%s: grammar rebuilt from its slice layout reads back differently", where)
	}
	for _, root := range roots {
		if g.Fingerprint(root) != rebuilt.Fingerprint(root) {
			t.Errorf("%s: fingerprint of %s changed across the slice-layout rebuild", where, g.Name(root))
		}
		sub, remap := g.Extract(root)
		got := layoutOf(sub)
		for old, nt := range remap {
			oi, ni := int(old)-grammar.NumTerminals, int(nt)-grammar.NumTerminals
			var rhss [][]grammar.Sym
			for _, rhs := range want.prods[oi] {
				mapped := make([]grammar.Sym, len(rhs))
				for k, s := range rhs {
					if mapped[k] = s; !grammar.IsTerminal(s) {
						mapped[k] = remap[s]
					}
				}
				rhss = append(rhss, mapped)
			}
			if got.names[ni] != want.names[oi] || got.labels[ni] != want.labels[oi] || !reflect.DeepEqual(got.prods[ni], rhss) {
				t.Errorf("%s: Extract(%s) copied %s differently from its slice layout", where, g.Name(root), g.Name(old))
			}
		}
	}
	return rebuilt
}

// TestArenaPreservesFindingsOnCorpus is the arena substrate's corpus-scale
// oracle: every page grammar the analysis builds for a Table 1 subject must
// read back consistently through every arena path, and each hotspot checked
// on a grammar rebuilt from the plain per-nonterminal slice layout must give
// a result DeepEqual to the check on the analysis-built arena — the policy
// cascade may depend on the productions, labels and names alone, never on
// how the slab and the intern pool happen to hold them. Each check runs on
// a fresh checker, so both sides run the cascade instead of one reading the
// other's memoized verdict.
func TestArenaPreservesFindingsOnCorpus(t *testing.T) {
	hotspots := 0
	for _, app := range corpus.Apps() {
		resolver := analysis.NewMapResolver(app.Sources)
		for _, entry := range app.Entries {
			ar, err := analysis.Analyze(resolver, entry, analysis.Options{})
			if err != nil {
				t.Fatalf("%s %s: %v", app.Name, entry, err)
			}
			if len(ar.Hotspots) == 0 {
				continue
			}
			var roots []grammar.Sym
			for _, h := range ar.Hotspots {
				roots = append(roots, h.Root)
			}
			rebuilt := arenaRoundTrip(t, app.Name+" "+entry, ar.G, roots)
			for _, h := range ar.Hotspots {
				hotspots++
				want := policy.New().CheckHotspot(ar.G, h.Root)
				got := policy.New().CheckHotspot(rebuilt, h.Root)
				want.CheckTime, got.CheckTime = 0, 0
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s:%d: result diverged across the slice-layout rebuild\nrebuilt: %+v\narena:   %+v",
						app.Name, h.File, h.Line, got, want)
				}
			}
		}
	}
	if hotspots == 0 {
		t.Fatal("corpus produced no hotspots")
	}
}

// TestArenaPreservesXSSFindings is the same oracle for the XSS auditor over
// the page-output grammar of every corpus page that emits HTML.
func TestArenaPreservesXSSFindings(t *testing.T) {
	checker := xss.New()
	pages := 0
	for _, app := range corpus.Apps() {
		resolver := analysis.NewMapResolver(app.Sources)
		for _, entry := range app.Entries {
			ar, err := analysis.Analyze(resolver, entry, analysis.Options{})
			if err != nil {
				t.Fatalf("%s %s: %v", app.Name, entry, err)
			}
			if ar.PageOutput == 0 {
				continue
			}
			pages++
			rebuilt := arenaRoundTrip(t, app.Name+" "+entry, ar.G, []grammar.Sym{ar.PageOutput})
			want := checker.CheckOutput(ar.G, ar.PageOutput)
			got := checker.CheckOutput(rebuilt, ar.PageOutput)
			want.CheckTime, got.CheckTime = 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: XSS result diverged across the slice-layout rebuild\nrebuilt: %+v\narena:   %+v",
					app.Name, entry, got, want)
			}
		}
	}
	if pages == 0 {
		t.Fatal("corpus produced no page output")
	}
}
