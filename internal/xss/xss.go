// Package xss implements the cross-site-scripting extension the paper
// proposes as future work (§7): "apply the same technique to detecting
// vulnerabilities that allow cross-site scripting attacks, in which a
// server may deliver untrusted JavaScript code to be executed by a client
// browser". The machinery is identical — the string-taint analysis already
// produces a grammar deriving every HTML document a page can emit
// (analysis.Result.PageOutput) — only the sink policy changes: instead of
// syntactic confinement in SQL, untrusted substrings must not change the
// structure of the emitted HTML.
//
// The policy, per labeled nonterminal X, by the HTML context(s) X occurs
// in (computed with the same relation/context machinery as the SQL
// checker):
//
//   - text context: X must not derive a string containing '<'
//     (tag/script injection);
//   - double-quoted attribute value: X must not derive '"'
//     (attribute breakout — onmouseover=... injection);
//   - single-quoted attribute value: X must not derive '\”;
//   - raw tag context (unquoted attribute or tag name): X must stay within
//     [A-Za-z0-9_-]* (anything else can start a new attribute or close the
//     tag).
package xss

import (
	"fmt"
	"sync"
	"time"

	"sqlciv/internal/analysis"
	"sqlciv/internal/automata"
	"sqlciv/internal/grammar"
	"sqlciv/internal/rx"
)

// Check identifies the failed policy.
type Check int

// Report kinds.
const (
	CheckTagInjection Check = iota + 1
	CheckAttrDQEscape
	CheckAttrSQEscape
	CheckRawTagContext
)

func (c Check) String() string {
	switch c {
	case CheckTagInjection:
		return "tag-injection"
	case CheckAttrDQEscape:
		return "attr-dquote-escape"
	case CheckAttrSQEscape:
		return "attr-squote-escape"
	case CheckRawTagContext:
		return "raw-tag-context"
	}
	return "unknown"
}

// Report is one potential XSS vulnerability.
type Report struct {
	NT      grammar.Sym
	Label   grammar.Label
	Check   Check
	Witness string
}

// Result summarizes one page-output check.
type Result struct {
	Reports    []Report
	Verified   bool
	LabeledNTs int
	CheckTime  time.Duration
}

// Finding is a page-level, deduplicated XSS report.
type Finding struct {
	Entry   string
	Check   Check
	Label   grammar.Label
	Witness string
}

// Direct reports whether the finding involves directly user-controlled
// data.
func (f Finding) Direct() bool { return f.Label&grammar.Direct != 0 }

func (f Finding) String() string {
	kind := "indirect"
	if f.Direct() {
		kind = "direct"
	}
	return fmt.Sprintf("%s: %s XSS [%s], e.g. untrusted part %q", f.Entry, kind, f.Check, f.Witness)
}

// HTML context DFA states.
const (
	ctxText = iota
	ctxTag
	ctxAttrDQ
	ctxAttrSQ
	numHTMLStates
)

var (
	once sync.Once
	pre  struct {
		html     *automata.DFA
		hasLT    *automata.DFA
		hasDQ    *automata.DFA
		hasSQ    *automata.DFA
		nonIdent *automata.DFA
	}
)

// buildHTMLDFA tracks the HTML context after a byte string: text, inside a
// tag, or inside a double- or single-quoted attribute value. It accepts
// nothing; the XSS checks read its relation and context masks.
func buildHTMLDFA() *automata.DFA {
	return automata.FromFunc(numHTMLStates, ctxText,
		func(int) bool { return false },
		func(s, sym int) int {
			switch s {
			case ctxText:
				if sym == '<' {
					return ctxTag
				}
			case ctxTag:
				switch sym {
				case '>':
					return ctxText
				case '"':
					return ctxAttrDQ
				case '\'':
					return ctxAttrSQ
				}
			case ctxAttrDQ:
				if sym == '"' {
					return ctxTag
				}
			case ctxAttrSQ:
				if sym == '\'' {
					return ctxTag
				}
			}
			return s
		})
}

func containsDFA(frag string) *automata.DFA {
	n := automata.Concat(automata.Concat(automata.SigmaStar(), automata.FromString(frag)), automata.SigmaStar())
	return n.Determinize().Minimize()
}

func buildPre() {
	pre.html = buildHTMLDFA()
	pre.hasLT = containsDFA("<")
	pre.hasDQ = containsDFA(`"`)
	pre.hasSQ = containsDFA("'")
	identRe, err := rx.Parse(`^[A-Za-z0-9_-]*$`, false)
	if err != nil {
		panic("xss: ident pattern: " + err.Error())
	}
	pre.nonIdent = identRe.MatchDFA().Complement().Minimize()
}

// CheckAutomaton names one prebuilt XSS check DFA.
type CheckAutomaton struct {
	Name string
	DFA  *automata.DFA
}

// CheckAutomata returns the prebuilt check DFAs by name, for the
// byte-class-footprint canary (`make bench-classes`).
func CheckAutomata() []CheckAutomaton {
	once.Do(buildPre)
	return []CheckAutomaton{
		{"html-context", pre.html},
		{"has-lt", pre.hasLT},
		{"has-dquote", pre.hasDQ},
		{"has-squote", pre.hasSQ},
		{"non-ident", pre.nonIdent},
	}
}

// Checker checks page-output grammars for XSS.
type Checker struct{}

// New returns a Checker (the underlying automata are shared and immutable).
func New() *Checker {
	once.Do(buildPre)
	return &Checker{}
}

// CheckOutput checks the HTML-output grammar rooted at root.
func (c *Checker) CheckOutput(g *grammar.Grammar, root grammar.Sym) *Result {
	start := time.Now()
	scratch, remap := g.Extract(root)
	sroot := remap[root]
	minLens := scratch.MinLens()
	var vl []grammar.Sym
	for i := 0; i < scratch.NumNTs(); i++ {
		nt := grammar.Sym(grammar.NumTerminals + i)
		if scratch.LabelOf(nt) != 0 && minLens[i] >= 0 {
			vl = append(vl, nt)
		}
	}
	res := &Result{LabeledNTs: len(vl)}

	plan := grammar.NewRelPlan(scratch, minLens, nil)
	htmlRels := plan.RelsT(pre.html, nil, nil)
	ctx := grammar.Contexts(scratch, sroot, pre.html, htmlRels)
	ltRels := plan.RelsT(pre.hasLT, nil, nil)
	dqRels := plan.RelsT(pre.hasDQ, nil, nil)
	sqRels := plan.RelsT(pre.hasSQ, nil, nil)
	niRels := plan.RelsT(pre.nonIdent, nil, nil)

	report := func(x grammar.Sym, check Check, d *automata.DFA) {
		w, _ := grammar.IntersectWitness(scratch, x, d)
		res.Reports = append(res.Reports, Report{NT: x, Label: scratch.LabelOf(x), Check: check, Witness: w})
	}
	for _, x := range vl {
		mask := ctx[int(x)-grammar.NumTerminals]
		if mask == 0 {
			continue // never emitted
		}
		switch {
		case mask&(1<<ctxText) != 0 && grammar.RelNonempty(ltRels, pre.hasLT, scratch, x):
			report(x, CheckTagInjection, pre.hasLT)
		case mask&(1<<ctxAttrDQ) != 0 && grammar.RelNonempty(dqRels, pre.hasDQ, scratch, x):
			report(x, CheckAttrDQEscape, pre.hasDQ)
		case mask&(1<<ctxAttrSQ) != 0 && grammar.RelNonempty(sqRels, pre.hasSQ, scratch, x):
			report(x, CheckAttrSQEscape, pre.hasSQ)
		case mask&(1<<ctxTag) != 0 && grammar.RelNonempty(niRels, pre.nonIdent, scratch, x):
			report(x, CheckRawTagContext, pre.nonIdent)
		}
	}
	res.Verified = len(res.Reports) == 0
	res.CheckTime = time.Since(start)
	return res
}

// Audit runs the string-taint analysis on each entry page and checks its
// HTML output grammar, returning deduplicated page-level findings.
func Audit(resolver analysis.Resolver, entries []string, opts analysis.Options) ([]Finding, error) {
	checker := New()
	var findings []Finding
	seen := map[string]bool{}
	for _, entry := range entries {
		ar, err := analysis.Analyze(resolver, entry, opts)
		if err != nil {
			return nil, err
		}
		if ar.PageOutput == 0 {
			continue
		}
		res := checker.CheckOutput(ar.G, ar.PageOutput)
		for _, rep := range res.Reports {
			direct := rep.Label&grammar.Direct != 0
			key := fmt.Sprintf("%s:%v:%v", entry, rep.Check, direct)
			if seen[key] {
				continue
			}
			seen[key] = true
			findings = append(findings, Finding{Entry: entry, Check: rep.Check, Label: rep.Label, Witness: rep.Witness})
		}
	}
	return findings, nil
}
