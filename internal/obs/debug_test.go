package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestDebugProgressEndpoint(t *testing.T) {
	tr := New()
	tr.AddPagesTotal(5)
	tr.PageDone(false)
	sp := tr.Start("page", "p")
	sp.Count("grammar.prods", 11)
	sp.End()

	srv := httptest.NewServer(DebugHandler(tr))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.PagesTotal != 5 || snap.PagesDone != 1 {
		t.Fatalf("progress = %+v", snap)
	}
	if snap.Counters["grammar.prods"] != 11 {
		t.Fatalf("counters = %v", snap.Counters)
	}
}

// TestDebugVarsAndIndex: the index lists the progress and pprof endpoints,
// and the expvar export /debug/vars is not served.
func TestDebugVarsAndIndex(t *testing.T) {
	tr := New()
	tr.AddPagesTotal(2)
	srv := httptest.NewServer(DebugHandler(tr))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/vars: status %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "/debug/progress") || !strings.Contains(string(body), "/debug/pprof/") ||
		strings.Contains(string(body), "/debug/vars") {
		t.Fatalf("index page wrong: %s", body)
	}
}

func TestServeDebug(t *testing.T) {
	tr := New()
	addr, shutdown, err := ServeDebug("127.0.0.1:0", tr)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	resp, err := http.Get("http://" + addr + "/debug/progress")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestRingSink(t *testing.T) {
	s := NewRingSink(4)
	tr := New(s)
	for i := 0; i < 6; i++ {
		sp := tr.Start("hotspot", "h")
		sp.End()
	}
	evs := s.Events()
	if len(evs) != 4 {
		t.Fatalf("len(events) = %d, want 4 (capacity)", len(evs))
	}
	if s.Dropped() != 2 {
		// 6 spans emit 6 end events; ring keeps 4.
		t.Errorf("dropped = %d, want 2", s.Dropped())
	}
	// Oldest-first ordering: span ids must be non-decreasing.
	for i := 1; i < len(evs); i++ {
		if evs[i].ID < evs[i-1].ID {
			t.Fatalf("events not oldest-first: %v", evs)
		}
	}
}
