package sqlciv

// Regenerate the check-automata fingerprint after an intended change to a
// check DFA with
//
//	go test -run TestCheckAutomataGolden -update .

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sqlciv/internal/automata"
	"sqlciv/internal/policy"
	"sqlciv/internal/xss"
)

// checkAutomataFingerprint renders one line per policy and XSS check DFA:
// its name, state count, start state, accepting states, and the SHA-256 of
// its full transition table (Step(s, sym) for every state and every one of
// the AlphabetSize symbols, as little-endian int32). The table hash sees
// every state number, so a renumbered automaton shows here by name.
func checkAutomataFingerprint() string {
	var b strings.Builder
	row := func(name string, d *automata.DFA) {
		h := sha256.New()
		var buf [4]byte
		var acc []string
		for s := 0; s < d.NumStates(); s++ {
			if d.IsAccept(s) {
				acc = append(acc, fmt.Sprint(s))
			}
			for sym := 0; sym < automata.AlphabetSize; sym++ {
				binary.LittleEndian.PutUint32(buf[:], uint32(int32(d.Step(s, sym))))
				h.Write(buf[:])
			}
		}
		fmt.Fprintf(&b, "%s states=%d start=%d accept=[%s] step=%x\n",
			name, d.NumStates(), d.Start(), strings.Join(acc, " "), h.Sum(nil))
	}
	for _, ca := range policy.CheckAutomata() {
		row("policy:"+ca.Name, ca.DFA)
	}
	for _, ca := range xss.CheckAutomata() {
		row("xss:"+ca.Name, ca.DFA)
	}
	return b.String()
}

// TestCheckAutomataGolden pins every check automaton to
// testdata/automata_golden.txt. TestConstructionGolden sees a renumbered
// check DFA only through intersection hashes; this test names it.
func TestCheckAutomataGolden(t *testing.T) {
	got := checkAutomataFingerprint()
	path := filepath.Join("testdata", "automata_golden.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run `go test -run TestCheckAutomataGolden -update .`): %v", path, err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s drifted at line %d:\nwant: %s\ngot:  %s", path, i+1, w, g)
		}
	}
}
