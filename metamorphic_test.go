package sqlciv

import (
	"math/rand"
	"testing"

	"sqlciv/internal/analysis"
	"sqlciv/internal/corpus"
	"sqlciv/internal/grammar"
	"sqlciv/internal/policy"
)

// permutedCopy rebuilds the sub-grammar reachable from root with freshly
// numbered nonterminals in shuffled creation order and per-nonterminal
// production lists in shuffled insertion order — an α-renamed,
// production-permuted isomorph. Names and labels are preserved, so the two
// grammars describe the same annotated language.
func permutedCopy(g *grammar.Grammar, root grammar.Sym, seed int64) (*grammar.Grammar, grammar.Sym) {
	rng := rand.New(rand.NewSource(seed))
	reach := g.Reachable(root)
	var nts []grammar.Sym
	for i, ok := range reach {
		if ok {
			nts = append(nts, grammar.Sym(grammar.NumTerminals+i))
		}
	}
	rng.Shuffle(len(nts), func(i, j int) { nts[i], nts[j] = nts[j], nts[i] })
	out := grammar.New()
	remap := make(map[grammar.Sym]grammar.Sym, len(nts))
	for _, nt := range nts {
		nn := out.NewNT(g.RawName(nt))
		out.SetLabel(nn, g.LabelOf(nt))
		remap[nt] = nn
	}
	for _, nt := range nts {
		for _, pi := range rng.Perm(g.NumProdsOf(nt)) {
			rhs := g.Rhs(nt, pi)
			nr := make([]grammar.Sym, len(rhs))
			for k, s := range rhs {
				if grammar.IsTerminal(s) {
					nr[k] = s
				} else {
					nr[k] = remap[s]
				}
			}
			out.Add(remap[nt], nr...)
		}
	}
	out.SetStart(remap[root])
	return out, remap[root]
}

// TestMetamorphicInvariance checks, on real hotspot grammars from the
// corpus, that the analysis result is a function of the annotated language
// alone: an α-renamed, production-permuted isomorph must produce the same
// canonical fingerprint, the same policy reports (check kinds, labels,
// witnesses, sources, order), and the same shortest witness as the
// original.
func TestMetamorphicInvariance(t *testing.T) {
	const perApp = 8 // hotspots exercised per corpus app
	for _, app := range corpus.Apps() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			seen := 0
			for _, entry := range app.Entries {
				if seen >= perApp {
					break
				}
				ar, err := analysis.Analyze(analysis.NewMapResolver(app.Sources), entry, analysis.Options{})
				if err != nil {
					t.Fatalf("%s: %v", entry, err)
				}
				for _, h := range ar.Hotspots {
					if seen >= perApp {
						break
					}
					seen++
					mut, mroot := permutedCopy(ar.G, h.Root, int64(seen)*7919)

					if fp, mfp := ar.G.Fingerprint(h.Root), mut.Fingerprint(mroot); fp != mfp {
						t.Errorf("%s:%d: fingerprint changed under α-renaming + production permutation", h.File, h.Line)
					}

					if w, ok := ar.G.WitnessString(h.Root); ok {
						mw, mok := mut.WitnessString(mroot)
						if !mok || mw != w {
							t.Errorf("%s:%d: witness changed: %q -> %q", h.File, h.Line, w, mw)
						}
					}

					// Fresh checkers: the isomorph's fingerprint equals the
					// original's, so one checker would answer it from its memo.
					orig := policy.New().CheckHotspot(ar.G, h.Root)
					perm := policy.New().CheckHotspot(mut, mroot)
					if orig.Verified != perm.Verified || len(orig.Reports) != len(perm.Reports) {
						t.Errorf("%s:%d: verdict changed: %d reports (verified=%v) -> %d (verified=%v)",
							h.File, h.Line, len(orig.Reports), orig.Verified, len(perm.Reports), perm.Verified)
						continue
					}
					for i := range orig.Reports {
						a, b := orig.Reports[i], perm.Reports[i]
						if a.Check != b.Check || a.Label != b.Label || a.Witness != b.Witness || a.Source != b.Source {
							t.Errorf("%s:%d report %d drifted:\n orig %v\n perm %v", h.File, h.Line, i, a, b)
						}
					}
				}
			}
			if seen == 0 {
				t.Skipf("no hotspots in the first entries of %s", app.Name)
			}
		})
	}
}
