package rx

import (
	"regexp"
	"sort"
	"strings"
	"testing"

	"sqlciv/internal/corpus"
)

// corpusPregRE finds preg_match patterns in the corpus sources; the /.../
// delimiters are stripped before seeding since Parse takes bare patterns.
var corpusPregRE = regexp.MustCompile(`preg_match\(\s*'([^']+)'`)

// FuzzParseCompile asserts the regex front end never panics and that every
// accepted pattern compiles to automata without panicking.
func FuzzParseCompile(f *testing.F) {
	for _, s := range []string{
		`[0-9]+`, `^[\d]+$`, `(a|b)*abb`, `[[:alpha:]]{1,3}`, `a.?c\x41`,
		`[^'\\]*`, `x{2,}y?`, `(?:ab)+`, `\w\s\W\S\d\D`,
	} {
		f.Add(s, false)
	}
	for _, app := range corpus.Apps() {
		names := make([]string, 0, len(app.Sources))
		for name := range app.Sources {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			for _, m := range corpusPregRE.FindAllStringSubmatch(app.Sources[name], -1) {
				p := m[1]
				if len(p) >= 2 && p[0] == '/' {
					if k := strings.LastIndexByte(p[1:], '/'); k >= 0 {
						p = p[1 : 1+k]
					}
				}
				f.Add(p, false)
				f.Add(p, true)
			}
		}
	}
	f.Fuzz(func(t *testing.T, pattern string, ci bool) {
		re, err := Parse(pattern, ci)
		if err != nil {
			return
		}
		// Compilation must not panic; match a couple of strings. A pattern
		// past the DFA state cap is skipped.
		d, ok := re.MatchDFA()
		if !ok {
			return
		}
		d.AcceptsString("probe'1")
		d.AcceptsString("")
		n := re.NFA()
		n.AcceptsString("probe")
	})
}
