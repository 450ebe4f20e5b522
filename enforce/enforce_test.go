package enforce

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sqlciv/internal/automata"
	ienforce "sqlciv/internal/enforce"
	"sqlciv/internal/grammar"
)

func testPack(t *testing.T) *Pack {
	t.Helper()
	g := grammar.New()
	s := g.NewNT("S")
	v := g.NewNT("V")
	g.Add(s, append(append([]grammar.Sym{}, grammar.TermString("SELECT name FROM t WHERE id='")...), v, grammar.T('\''))...)
	g.Add(v, v, grammar.T('7'))
	g.Add(v)
	g.SetStart(s)
	c, ok := ienforce.BuildAutomaton([]ienforce.GrammarSlice{{G: g, Root: s}}, ienforce.ApproxCaps{})
	if !ok {
		t.Fatal("BuildAutomaton failed")
	}
	data, _, err := ienforce.Compile([]ienforce.BuildEntry{
		{Key: "shop.php:42", Automaton: c, Verified: true},
		{Key: "legacy.php:9", Automaton: (*automata.DFA)(nil)},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestGuardModes(t *testing.T) {
	p := testPack(t)
	legit := "SELECT name FROM t WHERE id='77'"
	attack := "SELECT name FROM t WHERE id='' OR '1'='1'"

	var logged []Decision
	g := NewGuard(p, ModeBlock)
	g.Log = func(d Decision) { logged = append(logged, d) }

	if d := g.CheckString("shop.php:42", legit); !d.Allowed || !d.InLanguage || d.Reason != "" {
		t.Fatalf("legit blocked: %+v", d)
	}
	if d := g.CheckString("shop.php:42", attack); d.Allowed || d.Reason != ReasonOutsideLanguage {
		t.Fatalf("attack not blocked: %+v", d)
	}
	// Fail closed on hotspots the pack does not know or cannot enforce.
	if d := g.CheckString("nowhere.php:1", legit); d.Allowed || d.Reason != ReasonUnknownHotspot {
		t.Fatalf("unknown hotspot not blocked: %+v", d)
	}
	if d := g.Check("legacy.php:9", []byte(legit)); d.Allowed || d.Reason != ReasonUnavailable {
		t.Fatalf("unavailable hotspot not blocked: %+v", d)
	}
	if len(logged) != 3 {
		t.Fatalf("logged %d decisions, want 3", len(logged))
	}

	flag := NewGuard(p, ModeFlag)
	if d := flag.CheckString("shop.php:42", attack); !d.Allowed || !d.Flagged || d.Reason != ReasonOutsideLanguage {
		t.Fatalf("flag mode: %+v", d)
	}
	logMode := NewGuard(p, ModeLog)
	if d := logMode.Check("nowhere.php:1", []byte(legit)); !d.Allowed || !d.Flagged {
		t.Fatalf("log mode: %+v", d)
	}
}

func TestGuardZeroAllocHotPath(t *testing.T) {
	p := testPack(t)
	g := NewGuard(p, ModeBlock)
	legit := "SELECT name FROM t WHERE id='7'"
	attack := "SELECT name FROM t WHERE id='' OR 1=1 --'"
	if n := testing.AllocsPerRun(200, func() {
		if !g.CheckString("shop.php:42", legit).Allowed {
			t.Fatal("legit blocked")
		}
		if g.CheckString("shop.php:42", attack).Allowed {
			t.Fatal("attack allowed")
		}
	}); n != 0 {
		t.Fatalf("guard check allocates %v per run, want 0", n)
	}
}

func TestMiddleware(t *testing.T) {
	p := testPack(t)
	var served int
	next := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { served++; w.WriteHeader(200) })

	h := Middleware(MiddlewareConfig{Guard: NewGuard(p, ModeBlock)}, next)
	req := httptest.NewRequest("GET", "/orders", nil)
	req.Header.Set(HeaderHotspot, "shop.php:42")
	req.Header.Set(HeaderQuery, "SELECT name FROM t WHERE id='777'")
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if rw.Code != 200 || served != 1 {
		t.Fatalf("legit request: code=%d served=%d", rw.Code, served)
	}

	req.Header.Set(HeaderQuery, "SELECT name FROM t WHERE id='' UNION SELECT pw FROM users --'")
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if rw.Code != http.StatusForbidden || served != 1 {
		t.Fatalf("attack request: code=%d served=%d", rw.Code, served)
	}
	if !strings.Contains(rw.Body.String(), ReasonOutsideLanguage) {
		t.Errorf("block body %q", rw.Body.String())
	}

	// Flag mode forwards but marks the response.
	h = Middleware(MiddlewareConfig{Guard: NewGuard(p, ModeFlag)}, next)
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if rw.Code != 200 || served != 2 {
		t.Fatalf("flagged request: code=%d served=%d", rw.Code, served)
	}
	if got := rw.Header().Get("X-Sqlciv-Flagged"); got != ReasonOutsideLanguage {
		t.Errorf("X-Sqlciv-Flagged = %q", got)
	}
}

func TestOpenFile(t *testing.T) {
	p := testPack(t)
	path := filepath.Join(t.TempDir(), "app.pack")
	if err := os.WriteFile(path, p.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	fp, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fp.Close()
	m, ok := fp.Hotspot("shop.php:42")
	if !ok || !m.MatchString("SELECT name FROM t WHERE id='7'") {
		t.Fatal("mmap-opened pack does not match")
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing.pack")); err == nil {
		t.Error("Open on missing file succeeded")
	}
}

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
	}{{"block", ModeBlock}, {"flag", ModeFlag}, {"log", ModeLog}} {
		m, err := ParseMode(tc.in)
		if err != nil || m != tc.want {
			t.Errorf("ParseMode(%q) = %v, %v", tc.in, m, err)
		}
		if m.String() != tc.in {
			t.Errorf("Mode.String() = %q, want %q", m.String(), tc.in)
		}
	}
	if _, err := ParseMode("audit"); err == nil {
		t.Error("ParseMode accepted junk")
	}
}
