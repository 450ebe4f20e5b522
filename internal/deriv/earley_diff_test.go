package deriv

import (
	"math/rand"
	"testing"

	"sqlciv/internal/analysis"
	"sqlciv/internal/corpus"
	"sqlciv/internal/grammar"
	"sqlciv/internal/sqlgram"
)

// parsePair runs session.parse and parseReference on one input, each in a
// fresh session, and fails unless both give the same answer after
// admitting the same number of items. It returns the answer.
func parsePair(t testing.TB, c *Checker, start grammar.Sym, input form, sets [][]bool) bool {
	t.Helper()
	fast := &session{c: c, p: c.rec.NewParser(nil)}
	defer fast.p.Release()
	got := fast.parse(start, input, sets)
	want, items := parseReference(c.ref, sqlNullable, start, input, sets)
	if got != want || fast.p.Items != items {
		t.Fatalf("parse(%s, %v): answer %v after %d items; reference %v after %d items",
			c.ref.Name(start), input, got, fast.p.Items, want, items)
	}
	return got
}

// sqlNullable is the reference SQL grammar's nullable table, which every
// checker these tests build parses against.
var sqlNullable = nullables(sqlgram.Get().G)

// allSets returns nvars candidate sets over the reference alphabet with
// every symbol admitted — the sets refinement starts from.
func allSets(c *Checker, nvars int) [][]bool {
	sets := make([][]bool, nvars)
	for i := range sets {
		sets[i] = make([]bool, grammar.NumTerminals+c.ref.NumNTs())
		for j := range sets[i] {
			sets[i][j] = true
		}
	}
	return sets
}

// randomSets returns nvars candidate sets: all symbols, about half of them,
// or a handful, chosen per variable.
func randomSets(r *rand.Rand, c *Checker, nvars int) [][]bool {
	sets := allSets(c, nvars)
	for _, s := range sets {
		switch r.Intn(3) {
		case 1:
			for j := range s {
				s[j] = r.Intn(2) == 0
			}
		case 2:
			clear(s)
			for k := r.Intn(8); k >= 0; k-- {
				s[r.Intn(len(s))] = true
			}
		}
	}
	return sets
}

// randomForm expands start by random reference productions, leaving a
// nonterminal unexpanded at random or once depth runs out, so the form mixes
// terminals and reference nonterminals and start derives it.
func randomForm(r *rand.Rand, g *grammar.Grammar, start grammar.Sym, depth int) form {
	var out form
	var expand func(s grammar.Sym, d int)
	expand = func(s grammar.Sym, d int) {
		if len(out) > 40 {
			return
		}
		if grammar.IsTerminal(s) || d == 0 || r.Intn(5) == 0 {
			out = append(out, s)
			return
		}
		for _, x := range g.Rhs(s, r.Intn(g.NumProdsOf(s))) {
			expand(x, d-1)
		}
	}
	expand(start, depth)
	return out
}

// TestParseMatchesReference compares the flat-table parser with the
// reference parser on seeded forms over the SQL reference grammar: partial
// random derivations, some positions turned into variables over random
// candidate sets, some bytes mutated so that most forms are rejected.
func TestParseMatchesReference(t *testing.T) {
	sql := sqlgram.Get()
	c := New(sql.Rec)
	r := rand.New(rand.NewSource(16))
	nnt := sql.G.NumNTs()
	accepts := 0
	const forms = 3000
	for i := 0; i < forms; i++ {
		start := grammar.Sym(grammar.NumTerminals + r.Intn(nnt))
		if r.Intn(3) == 0 {
			start = sql.Start
		}
		f := randomForm(r, sql.G, start, 2+r.Intn(8))
		nvars := 1 + r.Intn(4)
		sets := randomSets(r, c, nvars)
		for k := range f {
			switch r.Intn(8) {
			case 0:
				id := r.Intn(nvars)
				if r.Intn(4) != 0 {
					sets[id][f[k]] = true // usually keep the form derivable
				}
				f[k] = grammar.Sym(-(id + 1))
			case 1:
				if r.Intn(4) == 0 {
					f[k] = grammar.Sym(r.Intn(128)) // a random ASCII byte
				}
			}
		}
		if parsePair(t, c, start, f, sets) {
			accepts++
		}
	}
	if accepts == 0 || accepts == forms {
		t.Fatalf("%d of %d forms accepted: the corpus no longer exercises both answers", accepts, forms)
	}
}

type tigerSlice struct {
	g    *grammar.Grammar
	root grammar.Sym
}

// tigerCheck5Slices returns the three query grammars check 5 runs on in a
// cold Tiger scan — the hotspots at line 5 of addnews.php, addcomment.php
// and feedback.php, extracted as the policy slice layer extracts them.
func tigerCheck5Slices(t *testing.T) []tigerSlice {
	t.Helper()
	app := corpus.Tiger()
	var out []tigerSlice
	for _, entry := range []string{"addnews.php", "addcomment.php", "feedback.php"} {
		res, err := analysis.Analyze(analysis.NewMapResolver(app.Sources), entry, analysis.Options{})
		if err != nil {
			t.Fatalf("analyze %s: %v", entry, err)
		}
		for _, h := range res.Hotspots {
			if h.File == entry && h.Line == 5 {
				// The policy slice, then DerivableT's own extraction of it.
				slice, remap := res.G.Extract(h.Root)
				sub, subRemap := slice.Extract(remap[h.Root])
				out = append(out, tigerSlice{sub, subRemap[remap[h.Root]]})
			}
		}
	}
	if len(out) != 3 {
		t.Fatalf("found %d Tiger check-5 hotspots, want 3", len(out))
	}
	return out
}

// TestParseMatchesReferenceOnTiger runs both parsers on every flattened
// sentential form of Tiger's three check-5 calls (18 variables and 2,343
// forms each), against the start symbols refinement tries, with the
// candidate sets refinement starts from and with random ones.
func TestParseMatchesReferenceOnTiger(t *testing.T) {
	sql := sqlgram.Get()
	c := New(sql.Rec)
	r := rand.New(rand.NewSource(5))
	nnt := sql.G.NumNTs()
	for gi, sl := range tigerCheck5Slices(t) {
		vars, rules, ok := c.flatten(sl.g, sl.root)
		if !ok {
			t.Fatalf("slice %d: flatten failed", gi)
		}
		nforms := 0
		for _, fs := range rules {
			nforms += len(fs)
		}
		if len(vars) != 18 || nforms != 2343 {
			t.Fatalf("slice %d: %d variables, %d forms; want 18, 2343", gi, len(vars), nforms)
		}
		initial := allSets(c, len(vars))
		for _, fs := range rules {
			for _, f := range fs {
				parsePair(t, c, sql.Start, f, initial)
				start := grammar.Sym(grammar.NumTerminals + r.Intn(nnt))
				parsePair(t, c, start, f, initial)
				parsePair(t, c, start, f, randomSets(r, c, len(vars)))
			}
		}
	}
}

// FuzzEarley compares the flat-table parser with the reference parser on
// arbitrary forms. The form bytes decode as: 0xF0–0xFF variable (b&3),
// 0xC0–0xEF reference nonterminal (b-0xC0, wrapped), anything else that
// terminal byte. seed draws the four variables' candidate sets.
func FuzzEarley(f *testing.F) {
	sql := sqlgram.Get()
	c := New(sql.Rec)
	nnt := sql.G.NumNTs()
	f.Add(uint8(sql.Start-grammar.NumTerminals), uint64(1), []byte("SELECT * FROM t WHERE id='\xf0'"))
	f.Add(uint8(sql.Start-grammar.NumTerminals), uint64(2), []byte("SELECT a FROM t WHERE a=\xf1 AND b='\xf2'"))
	f.Add(uint8(sql.Start-grammar.NumTerminals), uint64(3), []byte("SELECT * FROM t WHERE id IN (\xf0, \xf0)"))
	f.Add(uint8(sql.NumLit-grammar.NumTerminals), uint64(4), []byte("4\xf3"))
	f.Add(uint8(sql.Start-grammar.NumTerminals), uint64(5), []byte("SELECT * FROM t WHERE id='1'; DROP TABLE t; --'"))
	f.Add(uint8(0), uint64(6), []byte("\xc0\xc1 \xc2"))
	f.Add(uint8(7), uint64(7), []byte(""))
	f.Fuzz(func(t *testing.T, startIdx uint8, seed uint64, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		in := make(form, 0, len(data))
		for _, b := range data {
			switch {
			case b >= 0xF0:
				in = append(in, grammar.Sym(-(int(b&3) + 1)))
			case b >= 0xC0:
				in = append(in, grammar.Sym(grammar.NumTerminals+int(b-0xC0)%nnt))
			default:
				in = append(in, grammar.Sym(b))
			}
		}
		start := grammar.Sym(grammar.NumTerminals + int(startIdx)%nnt)
		sets := randomSets(rand.New(rand.NewSource(int64(seed))), c, 4)
		parsePair(t, c, start, in, sets)
	})
}
