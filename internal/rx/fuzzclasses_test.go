package rx

import (
	"testing"

	"sqlciv/internal/automata"
)

// FuzzByteClasses drives the byte-class machinery through the regex front
// end: for every accepted pattern it checks that the match DFA's partition
// is valid, canonical and coarsest, that the NFA's verdict on the fuzzed
// subject survives replacing its bytes by their class representatives, and
// that match/complement agree with the automaton semantics on the subject. Seeds are the policy cascade's own check patterns and attack
// fragments, so the corpus starts on the automata the SQL checker actually
// ships.
func FuzzByteClasses(f *testing.F) {
	seeds := []string{
		// policy check regexes
		`^-?[0-9]+(\.[0-9]+)?$`,
		`^[A-Za-z0-9_-]*$`,
		// attack fragments (policy check 4) and quote machinery
		`--`, `DROP`, `UNION`, `;`, `/\*`, ` OR `, ` or 1=1`,
		`[^'\\]*`, `'[^']*'`,
	}
	for _, s := range seeds {
		f.Add(s, false, "probe' OR 1=1 --")
		f.Add(s, true, "42.5")
	}
	f.Fuzz(func(t *testing.T, pattern string, ci bool, subject string) {
		re, err := Parse(pattern, ci)
		if err != nil {
			return
		}
		d := re.MatchDFA()
		nc := d.NumClasses()
		if nc < 1 || nc > automata.AlphabetSize {
			t.Fatalf("pattern %q: %d classes out of range", pattern, nc)
		}
		bc := d.Classes()
		// Partition validity: classes are numbered by ascending smallest
		// member, each representative is the smallest member of its class,
		// and any two classes are told apart by some state.
		for cls := 0; cls < nc; cls++ {
			if rep := bc.Rep(cls); bc.ClassOf(rep) != cls || (cls > 0 && rep <= bc.Rep(cls-1)) {
				t.Fatalf("pattern %q: class %d has non-canonical representative %d", pattern, cls, rep)
			}
		}
		for sym := 0; sym < automata.AlphabetSize; sym++ {
			if rep := bc.Rep(bc.ClassOf(sym)); rep > sym {
				t.Fatalf("pattern %q: class rep %d larger than member %d", pattern, rep, sym)
			}
		}
		for a := 0; a < nc; a++ {
			for b := a + 1; b < nc; b++ {
				split := false
				for s := 0; s < d.NumStates() && !split; s++ {
					split = d.StepClass(s, a) != d.StepClass(s, b)
				}
				if !split {
					t.Fatalf("pattern %q: classes %d and %d are indistinguishable", pattern, a, b)
				}
			}
		}
		// Soundness of the partition against the NFA: replacing every byte
		// of the subject by its class representative keeps the verdict.
		reps := []byte(subject)
		for i, c := range reps {
			reps[i] = byte(bc.Rep(bc.ClassOf(int(c))))
		}
		if re.MatchLang().AcceptsString(string(reps)) != re.MatchLang().AcceptsString(subject) {
			t.Fatalf("pattern %q: NFA tells %q from its class representatives %q", pattern, subject, reps)
		}
		// Semantics: the DFA matches the NFA, and the complement DFA is the
		// exact negation on the fuzzed subject.
		if re.MatchLang().AcceptsString(subject) != d.AcceptsString(subject) {
			t.Fatalf("pattern %q: DFA and NFA disagree on %q", pattern, subject)
		}
		if re.ComplementMatchDFA().AcceptsString(subject) == d.AcceptsString(subject) {
			t.Fatalf("pattern %q: complement not a negation on %q", pattern, subject)
		}
	})
}
