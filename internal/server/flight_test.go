// flight_test.go exercises the degradation flight recorder end to end
// through the HTTP surface: a degraded request's span trace must stay
// retrievable after a flood of healthy traffic has scrolled it out of the
// recent ring, SLO breaches must promote traces too, and the audit log must
// carry one line per request with the retention flag.
package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

const degradedRequest = `{
  "sources": {
    "vuln.php": "<?php\n$id = $_GET['id'];\nmysql_query(\"SELECT * FROM t WHERE name='$id'\");\n"
  },
  "entries": ["vuln.php"],
  "budget": {"max_steps": 1}
}`

func flightSnap(t *testing.T, srv *Server) flightSnapshot {
	t.Helper()
	code, body := get(t, srv, "/debug/flight", "")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/flight: status %d: %s", code, body)
	}
	var snap flightSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("flight snapshot: %v", err)
	}
	return snap
}

// TestFlightDegradedTraceSurvivesEviction is the flight recorder's core
// guarantee: the one request that degraded keeps its full span trace even
// after enough healthy requests have evicted it from the recent ring.
func TestFlightDegradedTraceSurvivesEviction(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	// Small rings, so a few requests evict; set before any traffic.
	srv.flight = newFlightRecorder(4, 2)

	code, body := post(t, srv, "/v1/analyze", degradedRequest)
	if code != http.StatusOK {
		t.Fatalf("degraded analyze: status %d: %s", code, body)
	}
	snap := flightSnap(t, srv)
	if len(snap.Retained) != 1 || !snap.Retained[0].Degraded {
		t.Fatalf("degraded request not retained: %+v", snap.Retained)
	}
	degradedID := snap.Retained[0].ID

	// Flood: twice the recent ring's capacity in healthy requests.
	for i := 0; i < 8; i++ {
		if code, body := post(t, srv, "/v1/analyze", goldenRequest); code != http.StatusOK {
			t.Fatalf("healthy analyze %d: status %d: %s", i, code, body)
		}
	}

	snap = flightSnap(t, srv)
	for _, e := range snap.Recent {
		if e.ID == degradedID {
			t.Fatalf("degraded entry still in the recent ring after 8 healthy requests (cap 4)")
		}
	}
	var retained *FlightEntry
	for i := range snap.Retained {
		if snap.Retained[i].ID == degradedID {
			retained = &snap.Retained[i]
		}
	}
	if retained == nil {
		t.Fatalf("degraded entry evicted from the retained ring: %+v", snap.Retained)
	}
	if !retained.Retained || retained.Degradations == 0 {
		t.Errorf("retained entry lost its markers: %+v", retained)
	}
	// The listing carries summaries; the full trace comes by id.
	if len(retained.Trace) != 0 {
		t.Errorf("listing leaked the trace body (%d events)", len(retained.Trace))
	}
	code, body = get(t, srv, "/debug/flight?id="+degradedID, "")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/flight?id=%s: status %d", degradedID, code)
	}
	var entry FlightEntry
	if err := json.Unmarshal([]byte(body), &entry); err != nil {
		t.Fatal(err)
	}
	if len(entry.Trace) == 0 {
		t.Fatalf("retained entry has no span trace: %s", body)
	}
	// Healthy requests must NOT have their traces kept.
	for _, e := range snap.Recent {
		if e.ID == degradedID {
			continue
		}
		if code, body := get(t, srv, "/debug/flight?id="+e.ID, ""); code == http.StatusOK &&
			strings.Contains(body, `"trace"`) {
			t.Errorf("healthy request %s kept a trace", e.ID)
		}
	}
}

// TestFlightSLOBreachPromotes proves the -slo-ms trigger: with a 1 ns SLO
// every request breaches, so even a healthy analyze gets its trace
// retained and the breach counted.
func TestFlightSLOBreachPromotes(t *testing.T) {
	srv := New(Config{Workers: 1, SLO: time.Nanosecond})
	defer srv.Close()
	if code, body := post(t, srv, "/v1/analyze", goldenRequest); code != http.StatusOK {
		t.Fatalf("analyze: status %d: %s", code, body)
	}
	snap := flightSnap(t, srv)
	if len(snap.Retained) == 0 || !snap.Retained[0].SLOBreach {
		t.Fatalf("SLO breach did not promote the trace: %+v", snap.Retained)
	}
	if v := srv.MetricsSnapshot()["sqlcheckd_slo_breaches_total{endpoint=/v1/analyze}"]; v < 1 {
		t.Errorf("slo_breaches_total = %v, want >= 1", v)
	}
}

// TestAuditLogLines proves -access-log: one JSON line per request, carrying
// status, endpoint, counts, and the trace-retention flag.
func TestAuditLogLines(t *testing.T) {
	var buf bytes.Buffer
	srv := New(Config{Workers: 1, AuditLog: &buf})
	defer srv.Close()

	if code, _ := post(t, srv, "/v1/analyze", degradedRequest); code != http.StatusOK {
		t.Fatalf("analyze status %d", code)
	}
	if code, _ := get(t, srv, "/v1/jobs/nope", ""); code != http.StatusNotFound {
		t.Fatalf("job poll status %d, want 404", code)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("audit lines = %d, want 2:\n%s", len(lines), buf.String())
	}
	var first auditRecord
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("audit line does not parse: %v\n%s", err, lines[0])
	}
	if first.Kind != "request" || first.Endpoint != "/v1/analyze" || first.Status != http.StatusOK {
		t.Errorf("analyze audit line wrong: %+v", first)
	}
	if first.Degradations == 0 || !first.TraceRetained {
		t.Errorf("degraded analyze audit line missing markers: %+v", first)
	}
	if first.BytesIn == 0 || first.ID == "" || first.TS == "" {
		t.Errorf("audit line missing basics: %+v", first)
	}
	var second auditRecord
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	if second.Endpoint != "/v1/jobs/{id}" || second.Status != http.StatusNotFound || second.Code != CodeNotFound {
		t.Errorf("404 audit line wrong: %+v", second)
	}
}

// TestAsyncJobFlightEntry proves async jobs file their own flight entries
// (kind "job") when they finish, degraded ones with traces.
func TestAsyncJobFlightEntry(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()

	code, body := post(t, srv, "/v1/jobs", degradedRequest)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", code, body)
	}
	var st JobStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	code, body = get(t, srv, "/v1/jobs/"+st.ID+"?wait=30s", "")
	if code != http.StatusOK || !strings.Contains(body, `"state": "done"`) {
		t.Fatalf("job did not finish: status %d: %s", code, body)
	}

	var entry *FlightEntry
	snap := flightSnap(t, srv)
	for i := range snap.Retained {
		if snap.Retained[i].ID == st.ID {
			entry = &snap.Retained[i]
		}
	}
	if entry == nil {
		t.Fatalf("no retained flight entry for job %s: %+v", st.ID, snap.Retained)
	}
	if entry.Kind != "job" || !entry.Degraded {
		t.Errorf("job flight entry wrong: %+v", entry)
	}
	code, body = get(t, srv, "/debug/flight?id="+st.ID, "")
	if code != http.StatusOK || !strings.Contains(body, `"trace"`) {
		t.Fatalf("job trace not retrievable: status %d: %s", code, body)
	}
}

// TestRequestIDHeader: every response carries the request id the audit log
// and flight recorder key on.
func TestRequestIDHeader(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if id := rec.Header().Get(RequestIDHeader); !strings.HasPrefix(id, "r") {
		t.Fatalf("missing %s header: %q", RequestIDHeader, id)
	}
}
