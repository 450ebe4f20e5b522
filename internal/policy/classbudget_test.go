package policy

import "testing"

// maxCheckClasses is the byte-class budget for the prebuilt check automata.
// The cascade's checks distinguish quotes, backslashes, digits, the marker,
// and the handful of bytes in the attack fragments; a prebuilt DFA growing
// past this bound means some construction started telling apart bytes the
// policy does not care about — a compression regression that would silently
// inflate every fixpoint. `make bench-classes` runs this as a CI canary.
const maxCheckClasses = 24

func TestCheckDFAClassBudget(t *testing.T) {
	for _, ca := range CheckAutomata() {
		c := ca.DFA
		t.Logf("%-18s states=%-3d classes=%-3d slab=%dB", ca.Name, c.NumStates(), c.NumClasses(), c.SlabBytes())
		if c.NumClasses() > maxCheckClasses {
			t.Errorf("check DFA %q has %d byte classes (budget %d)", ca.Name, c.NumClasses(), maxCheckClasses)
		}
	}
}
