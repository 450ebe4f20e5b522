// Package rx compiles the regular-expression dialect PHP web applications
// use in their input guards (POSIX ereg/eregi and the PCRE subset of
// preg_match / preg_replace) into NFAs over the analysis alphabet. The
// string-taint analysis uses it to refine branch environments with the
// language a regex condition admits (paper §3.1.2), and the transducer
// package uses the parsed AST to build replacement FSTs.
//
// Supported syntax: literals, '.', character classes with ranges and
// negation, escapes (\d \D \w \W \s \S plus single-character escapes and
// \xHH), grouping with capture indices, (?: ) non-capturing groups,
// alternation, the quantifiers * + ? {m} {m,} {m,n} (lazy variants accepted
// and treated as greedy — same language), and the anchors ^ and $ at the
// pattern boundaries. Mid-pattern anchors, backreferences in patterns, and
// lookaround are rejected: the analysis must over-approximate, never guess.
package rx

import (
	"fmt"
	"strings"
	"sync"

	"sqlciv/internal/automata"
)

// Node is a parsed regex AST node.
type Node interface{ isNode() }

// Lit matches a single byte drawn from Set.
type Lit struct{ Set [256]bool }

// Cat matches the concatenation of Subs.
type Cat struct{ Subs []Node }

// Alt matches any one of Subs.
type Alt struct{ Subs []Node }

// Rep matches Sub repeated between Min and Max times (Max = -1 means
// unbounded).
type Rep struct {
	Sub      Node
	Min, Max int
}

// Grp is a group; Index is the capture index (0 for non-capturing).
type Grp struct {
	Sub   Node
	Index int
}

func (*Lit) isNode() {}
func (*Cat) isNode() {}
func (*Alt) isNode() {}
func (*Rep) isNode() {}
func (*Grp) isNode() {}

// Regex is a compiled pattern.
type Regex struct {
	AST             Node
	AnchorStart     bool
	AnchorEnd       bool
	CaseInsensitive bool
	NumGroups       int
	Source          string
}

// maxCounted bounds {m,n} expansion so pathological bounds cannot explode
// the automaton.
const maxCounted = 128

// Parse parses pattern (without delimiters). ci selects case-insensitive
// matching.
func Parse(pattern string, ci bool) (*Regex, error) {
	re := &Regex{CaseInsensitive: ci, Source: pattern}
	body := pattern
	if strings.HasPrefix(body, "^") {
		re.AnchorStart = true
		body = body[1:]
	}
	if n := len(body); n > 0 && body[n-1] == '$' && !escapedAt(body, n-1) {
		re.AnchorEnd = true
		body = body[:n-1]
	}
	p := &parser{src: body, ci: ci}
	ast, err := p.parseAlt()
	if err != nil {
		return nil, fmt.Errorf("rx: %q: %w", pattern, err)
	}
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("rx: %q: unexpected %q at %d", pattern, p.src[p.pos], p.pos)
	}
	re.AST = ast
	re.NumGroups = p.groups
	return re, nil
}

// ParsePHP parses a PHP preg-style delimited pattern such as
// "/^[\\d]+$/i". Supported flags: i (case-insensitive); the multiline and
// dotall flags are rejected because the analysis would need different
// automata for them.
func ParsePHP(pattern string) (*Regex, error) {
	if len(pattern) < 2 {
		return nil, fmt.Errorf("rx: pattern %q too short", pattern)
	}
	delim := pattern[0]
	end := strings.LastIndexByte(pattern, delim)
	if end <= 0 {
		return nil, fmt.Errorf("rx: unterminated pattern %q", pattern)
	}
	body := pattern[1:end]
	flags := pattern[end+1:]
	ci := false
	for _, f := range flags {
		switch f {
		case 'i':
			ci = true
		default:
			return nil, fmt.Errorf("rx: unsupported flag %q in %q", f, pattern)
		}
	}
	return Parse(body, ci)
}

// escapedAt reports whether s[i] is preceded by an odd number of
// backslashes.
func escapedAt(s string, i int) bool {
	n := 0
	for j := i - 1; j >= 0 && s[j] == '\\'; j-- {
		n++
	}
	return n%2 == 1
}

type parser struct {
	src    string
	pos    int
	ci     bool
	groups int
}

func (p *parser) peek() (byte, bool) {
	if p.pos >= len(p.src) {
		return 0, false
	}
	return p.src[p.pos], true
}

func (p *parser) parseAlt() (Node, error) {
	var subs []Node
	for {
		n, err := p.parseCat()
		if err != nil {
			return nil, err
		}
		subs = append(subs, n)
		if c, ok := p.peek(); ok && c == '|' {
			p.pos++
			continue
		}
		break
	}
	if len(subs) == 1 {
		return subs[0], nil
	}
	return &Alt{Subs: subs}, nil
}

func (p *parser) parseCat() (Node, error) {
	var subs []Node
	for {
		c, ok := p.peek()
		if !ok || c == '|' || c == ')' {
			break
		}
		atom, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		atom, err = p.parseQuant(atom)
		if err != nil {
			return nil, err
		}
		subs = append(subs, atom)
	}
	if len(subs) == 1 {
		return subs[0], nil
	}
	return &Cat{Subs: subs}, nil
}

func (p *parser) parseQuant(atom Node) (Node, error) {
	c, ok := p.peek()
	if !ok {
		return atom, nil
	}
	var min, max int
	switch c {
	case '*':
		min, max = 0, -1
		p.pos++
	case '+':
		min, max = 1, -1
		p.pos++
	case '?':
		min, max = 0, 1
		p.pos++
	case '{':
		var err error
		min, max, err = p.parseBounds()
		if err != nil {
			return nil, err
		}
	default:
		return atom, nil
	}
	// Lazy modifier: same language, skip it.
	if c2, ok := p.peek(); ok && c2 == '?' {
		p.pos++
	}
	return &Rep{Sub: atom, Min: min, Max: max}, nil
}

func (p *parser) parseBounds() (int, int, error) {
	// at '{'
	start := p.pos
	p.pos++
	readInt := func() (int, bool) {
		v, any := 0, false
		for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
			v = v*10 + int(p.src[p.pos]-'0')
			p.pos++
			any = true
			if v > maxCounted {
				v = maxCounted
			}
		}
		return v, any
	}
	min, okMin := readInt()
	if !okMin {
		return 0, 0, fmt.Errorf("bad repetition at %d", start)
	}
	max := min
	if c, ok := p.peek(); ok && c == ',' {
		p.pos++
		if v, any := readInt(); any {
			max = v
		} else {
			max = -1
		}
	}
	if c, ok := p.peek(); !ok || c != '}' {
		return 0, 0, fmt.Errorf("unterminated repetition at %d", start)
	}
	p.pos++
	if max != -1 && max < min {
		return 0, 0, fmt.Errorf("bad repetition bounds at %d", start)
	}
	return min, max, nil
}

func (p *parser) parseAtom() (Node, error) {
	c, ok := p.peek()
	if !ok {
		return &Cat{}, nil
	}
	switch c {
	case '(':
		p.pos++
		idx := 0
		if strings.HasPrefix(p.src[p.pos:], "?:") {
			p.pos += 2
		} else if c2, ok := p.peek(); ok && c2 == '?' {
			return nil, fmt.Errorf("unsupported group modifier at %d", p.pos)
		} else {
			p.groups++
			idx = p.groups
		}
		sub, err := p.parseAlt()
		if err != nil {
			return nil, err
		}
		if c2, ok := p.peek(); !ok || c2 != ')' {
			return nil, fmt.Errorf("unterminated group")
		}
		p.pos++
		return &Grp{Sub: sub, Index: idx}, nil
	case '[':
		return p.parseClass()
	case '.':
		p.pos++
		l := &Lit{}
		for i := 0; i < 256; i++ {
			l.Set[i] = true
		}
		l.Set['\n'] = false
		return l, nil
	case '\\':
		p.pos++
		return p.parseEscape(false)
	case '^', '$':
		return nil, fmt.Errorf("mid-pattern anchor %q at %d is not supported", c, p.pos)
	case '*', '+', '?', '{':
		return nil, fmt.Errorf("dangling quantifier %q at %d", c, p.pos)
	default:
		p.pos++
		return p.lit(c), nil
	}
}

// lit builds a single-byte literal, honoring case folding.
func (p *parser) lit(b byte) *Lit {
	l := &Lit{}
	l.Set[b] = true
	if p.ci {
		foldInto(&l.Set, b)
	}
	return l
}

func foldInto(set *[256]bool, b byte) {
	switch {
	case b >= 'a' && b <= 'z':
		set[b-'a'+'A'] = true
	case b >= 'A' && b <= 'Z':
		set[b-'A'+'a'] = true
	}
}

// parseEscape handles the character after a backslash. inClass changes
// nothing here (the same escapes are legal) but keeps the call sites clear.
func (p *parser) parseEscape(inClass bool) (*Lit, error) {
	c, ok := p.peek()
	if !ok {
		return nil, fmt.Errorf("trailing backslash")
	}
	p.pos++
	l := &Lit{}
	switch c {
	case 'd':
		for b := '0'; b <= '9'; b++ {
			l.Set[b] = true
		}
	case 'D':
		for i := 0; i < 256; i++ {
			l.Set[i] = i < '0' || i > '9'
		}
	case 'w':
		for i := 0; i < 256; i++ {
			l.Set[i] = isWordByte(byte(i))
		}
	case 'W':
		for i := 0; i < 256; i++ {
			l.Set[i] = !isWordByte(byte(i))
		}
	case 's':
		for _, b := range []byte{' ', '\t', '\n', '\r', '\f', '\v'} {
			l.Set[b] = true
		}
	case 'S':
		sp := map[byte]bool{' ': true, '\t': true, '\n': true, '\r': true, '\f': true, '\v': true}
		for i := 0; i < 256; i++ {
			l.Set[i] = !sp[byte(i)]
		}
	case 'n':
		l.Set['\n'] = true
	case 't':
		l.Set['\t'] = true
	case 'r':
		l.Set['\r'] = true
	case 'f':
		l.Set['\f'] = true
	case 'v':
		l.Set['\v'] = true
	case '0':
		l.Set[0] = true
	case 'x':
		hi, ok1 := hexVal(p.byteAt(p.pos))
		lo, ok2 := hexVal(p.byteAt(p.pos + 1))
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("bad \\x escape")
		}
		p.pos += 2
		l.Set[hi*16+lo] = true
	default:
		if c >= '1' && c <= '9' {
			return nil, fmt.Errorf("backreference \\%c in a pattern is not regular", c)
		}
		l.Set[c] = true
		if p.ci {
			foldInto(&l.Set, c)
		}
	}
	_ = inClass
	return l, nil
}

func (p *parser) byteAt(i int) byte {
	if i >= len(p.src) {
		return 0
	}
	return p.src[i]
}

func hexVal(b byte) (int, bool) {
	switch {
	case b >= '0' && b <= '9':
		return int(b - '0'), true
	case b >= 'a' && b <= 'f':
		return int(b-'a') + 10, true
	case b >= 'A' && b <= 'F':
		return int(b-'A') + 10, true
	}
	return 0, false
}

func isWordByte(b byte) bool {
	return b == '_' || (b >= '0' && b <= '9') || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z')
}

// posixClasses maps POSIX bracket-class names to byte predicates.
var posixClasses = map[string]func(byte) bool{
	"digit": func(b byte) bool { return b >= '0' && b <= '9' },
	"alpha": func(b byte) bool { return (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') },
	"alnum": func(b byte) bool {
		return (b >= '0' && b <= '9') || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z')
	},
	"space": func(b byte) bool {
		switch b {
		case ' ', '\t', '\n', '\r', '\f', '\v':
			return true
		}
		return false
	},
	"upper": func(b byte) bool { return b >= 'A' && b <= 'Z' },
	"lower": func(b byte) bool { return b >= 'a' && b <= 'z' },
	"punct": func(b byte) bool {
		return b >= '!' && b <= '~' &&
			!((b >= '0' && b <= '9') || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z'))
	},
	"xdigit": func(b byte) bool {
		return (b >= '0' && b <= '9') || (b >= 'a' && b <= 'f') || (b >= 'A' && b <= 'F')
	},
}

func (p *parser) parseClass() (Node, error) {
	// at '['
	p.pos++
	neg := false
	if c, ok := p.peek(); ok && c == '^' {
		neg = true
		p.pos++
	}
	l := &Lit{}
	first := true
	for {
		c, ok := p.peek()
		if !ok {
			return nil, fmt.Errorf("unterminated character class")
		}
		if c == ']' && !first {
			p.pos++
			break
		}
		first = false
		// POSIX class: [:name:] inside the bracket expression.
		if c == '[' && p.pos+1 < len(p.src) && p.src[p.pos+1] == ':' {
			end := strings.Index(p.src[p.pos:], ":]")
			if end < 2 { // must close after "[:", and the name may be empty
				return nil, fmt.Errorf("unterminated POSIX class")
			}
			name := p.src[p.pos+2 : p.pos+end]
			pred, known := posixClasses[name]
			if !known {
				return nil, fmt.Errorf("unknown POSIX class [:%s:]", name)
			}
			for b := 0; b < 256; b++ {
				if pred(byte(b)) {
					l.Set[b] = true
					if p.ci {
						foldInto(&l.Set, byte(b))
					}
				}
			}
			p.pos += end + 2
			continue
		}
		var lo byte
		if c == '\\' {
			p.pos++
			el, err := p.parseEscape(true)
			if err != nil {
				return nil, err
			}
			// Multi-byte escape classes cannot be range endpoints.
			single, b := singleByte(el)
			if !single {
				for i := 0; i < 256; i++ {
					if el.Set[i] {
						l.Set[i] = true
					}
				}
				continue
			}
			lo = b
		} else {
			p.pos++
			lo = c
		}
		// Range?
		if c2, ok := p.peek(); ok && c2 == '-' {
			if c3 := p.byteAt(p.pos + 1); c3 != ']' && p.pos+1 < len(p.src) {
				p.pos++ // consume '-'
				hiC, _ := p.peek()
				var hi byte
				if hiC == '\\' {
					p.pos++
					el, err := p.parseEscape(true)
					if err != nil {
						return nil, err
					}
					single, b := singleByte(el)
					if !single {
						return nil, fmt.Errorf("bad range endpoint")
					}
					hi = b
				} else {
					p.pos++
					hi = hiC
				}
				if hi < lo {
					return nil, fmt.Errorf("reversed range %c-%c", lo, hi)
				}
				for b := int(lo); b <= int(hi); b++ {
					l.Set[b] = true
					if p.ci {
						foldInto(&l.Set, byte(b))
					}
				}
				continue
			}
		}
		l.Set[lo] = true
		if p.ci {
			foldInto(&l.Set, lo)
		}
	}
	if neg {
		for i := 0; i < 256; i++ {
			l.Set[i] = !l.Set[i]
		}
	}
	return l, nil
}

func singleByte(l *Lit) (bool, byte) {
	count, val := 0, byte(0)
	for i := 0; i < 256; i++ {
		if l.Set[i] {
			count++
			val = byte(i)
		}
	}
	// Case-folded letters still count as "single" endpoints for ranges.
	if count == 1 {
		return true, val
	}
	return false, 0
}

// NFA compiles the regex body to an NFA for L(R) — the exact match
// language, ignoring anchors.
func (re *Regex) NFA() *automata.NFA { return compile(re.AST) }

// MatchLang returns an NFA for the set of subject strings on which the
// pattern matches (somewhere, unless anchored): the condition language the
// string analysis intersects into a guarded branch.
func (re *Regex) MatchLang() *automata.NFA {
	body := compile(re.AST)
	if !re.AnchorStart {
		body = automata.Concat(automata.SigmaStar(), body)
	}
	if !re.AnchorEnd {
		body = automata.Concat(body, automata.SigmaStar())
	}
	return body
}

// matchDFACache and nonMatchDFACache hold the compiled guard DFAs keyed by
// (case-insensitivity, pattern source). The same guard pattern recurs across
// pages and apps; one build serves every call site, and the automaton is
// additionally interned by structural fingerprint so even distinct patterns
// with the same language share one transition slab.
var (
	matchDFACache    sync.Map // string -> *automata.DFA
	nonMatchDFACache sync.Map
)

func (re *Regex) cacheKey() string {
	if re.CaseInsensitive {
		return "i\x00" + re.Source
	}
	return "-\x00" + re.Source
}

// MatchDFA returns the minimized DFA of MatchLang. The result is cached per
// (pattern, flags) and shared.
func (re *Regex) MatchDFA() *automata.DFA {
	k := re.cacheKey()
	if v, ok := matchDFACache.Load(k); ok {
		return v.(*automata.DFA)
	}
	d := automata.Intern(re.MatchLang().Determinize().Minimize())
	v, _ := matchDFACache.LoadOrStore(k, d)
	return v.(*automata.DFA)
}

// ComplementMatchDFA returns the minimized DFA of the strings on which the
// pattern does NOT match — the language of the else branch of a guard. The
// result is cached and shared like MatchDFA.
func (re *Regex) ComplementMatchDFA() *automata.DFA {
	k := re.cacheKey()
	if v, ok := nonMatchDFACache.Load(k); ok {
		return v.(*automata.DFA)
	}
	d := automata.Intern(re.MatchDFA().Complement().Minimize())
	v, _ := nonMatchDFACache.LoadOrStore(k, d)
	return v.(*automata.DFA)
}

// compile translates an AST node to an NFA.
func compile(n Node) *automata.NFA {
	switch v := n.(type) {
	case *Lit:
		a := automata.NewNFA()
		acc := a.AddState()
		a.SetAccept(acc, true)
		for i := 0; i < 256; i++ {
			if v.Set[i] {
				a.AddEdge(a.Start(), i, acc)
			}
		}
		return a
	case *Cat:
		out := automata.EpsilonLang()
		for _, s := range v.Subs {
			out = automata.Concat(out, compile(s))
		}
		return out
	case *Alt:
		out := compile(v.Subs[0])
		for _, s := range v.Subs[1:] {
			out = automata.Union(out, compile(s))
		}
		return out
	case *Grp:
		return compile(v.Sub)
	case *Rep:
		sub := compile(v.Sub)
		out := automata.EpsilonLang()
		for i := 0; i < v.Min; i++ {
			out = automata.Concat(out, sub)
		}
		switch {
		case v.Max == -1:
			out = automata.Concat(out, automata.Star(sub))
		default:
			opt := automata.Union(automata.EpsilonLang(), sub)
			for i := v.Min; i < v.Max; i++ {
				out = automata.Concat(out, opt)
			}
		}
		return out
	}
	panic("rx: unknown node")
}

// FindGroup returns the AST of capture group idx, or nil if absent.
func (re *Regex) FindGroup(idx int) Node {
	var find func(n Node) Node
	find = func(n Node) Node {
		switch v := n.(type) {
		case *Grp:
			if v.Index == idx {
				return v.Sub
			}
			return find(v.Sub)
		case *Cat:
			for _, s := range v.Subs {
				if r := find(s); r != nil {
					return r
				}
			}
		case *Alt:
			for _, s := range v.Subs {
				if r := find(s); r != nil {
					return r
				}
			}
		case *Rep:
			return find(v.Sub)
		}
		return nil
	}
	return find(re.AST)
}

// CompileNode exposes AST→NFA compilation for other packages (the
// transducer builder compiles capture-group sub-languages).
func CompileNode(n Node) *automata.NFA { return compile(n) }
