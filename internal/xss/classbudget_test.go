package xss

import "testing"

// maxCheckClasses mirrors the policy package's canary: the XSS check
// automata distinguish only the HTML structural bytes ('<', '>', quotes)
// and the identifier range, so their byte-class counts must stay small.
const maxCheckClasses = 24

func TestCheckDFAClassBudget(t *testing.T) {
	for _, ca := range CheckAutomata() {
		c := ca.DFA
		t.Logf("%-14s states=%-3d classes=%-3d slab=%dB", ca.Name, c.NumStates(), c.NumClasses(), c.SlabBytes())
		if c.NumClasses() > maxCheckClasses {
			t.Errorf("check DFA %q has %d byte classes (budget %d)", ca.Name, c.NumClasses(), maxCheckClasses)
		}
	}
}
