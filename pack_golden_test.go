package sqlciv

// Regenerate the pack fingerprint after an intended enforcement change with
//
//	go test -run TestPackGolden -update .

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sqlciv/internal/core"
	"sqlciv/internal/corpus"
	ienforce "sqlciv/internal/enforce"
)

// packFingerprint renders what pack compilation emits for the Table 1
// corpus: per app the SHA-256 of the core.BuildPack bytes and the compile
// stats, then per hotspot entry its key, verified and available flags, and
// automaton state count.
func packFingerprint(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, app := range corpus.Apps() {
		res := buildEnforceSubject(t, app).res
		data, st, err := core.BuildPack(res, core.PackOptions{})
		if err != nil {
			t.Fatalf("BuildPack(%s): %v", app.Name, err)
		}
		pack, err := ienforce.Load(data)
		if err != nil {
			t.Fatalf("Load(%s): %v", app.Name, err)
		}
		fmt.Fprintf(&b, "== %s sha256=%x\n", app.Name, sha256.Sum256(data))
		fmt.Fprintf(&b, "stats hotspots=%d unavailable=%d verified=%d states=%d slab=%d pack=%d\n",
			st.Hotspots, st.Unavailable, st.Verified, st.States, st.SlabBytes, st.PackBytes)
		for _, key := range pack.Keys() {
			m, _ := pack.Hotspot(key)
			fmt.Fprintf(&b, "entry %s verified=%v available=%v states=%d\n",
				key, m.Verified(), m.Available(), m.NumStates())
		}
	}
	return b.String()
}

// TestPackGolden pins pack compilation to a committed fingerprint of every
// corpus pack. A change to the grammar→automaton pipeline that claims to
// emit the same packs must leave testdata/pack_golden.txt byte-identical.
func TestPackGolden(t *testing.T) {
	got := packFingerprint(t)
	path := filepath.Join("testdata", "pack_golden.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run `go test -run TestPackGolden -update .`): %v", path, err)
	}
	if got != string(want) {
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
}
