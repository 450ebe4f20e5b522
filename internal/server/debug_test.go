package server

import (
	"encoding/json"
	"net/http"
	"testing"
)

// TestDebugSurface: the daemon serves pprof under /debug/pprof/, while the
// run-level obs views (/debug/vars, /debug/progress) are not mounted and
// answer 404 with the not-found envelope. Progress lives on each job's own
// tracer, behind GET /v1/jobs/<id>.
func TestDebugSurface(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()

	if code, body := get(t, srv, "/debug/pprof/", ""); code != http.StatusOK {
		t.Fatalf("/debug/pprof/: status %d: %s", code, body)
	}
	for _, path := range []string{"/debug/vars", "/debug/progress"} {
		code, body := get(t, srv, path, "")
		var env errorEnvelope
		if err := json.Unmarshal([]byte(body), &env); err != nil || code != http.StatusNotFound || env.Error.Code != CodeNotFound {
			t.Errorf("%s: status %d, code %q; want 404 with code %q", path, code, env.Error.Code, CodeNotFound)
		}
	}
}
