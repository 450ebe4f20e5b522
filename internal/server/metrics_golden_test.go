// metrics_golden_test.go locks the /metrics exposition: after one healthy
// analyze, one degraded analyze, and one 404, the served text must parse
// strictly and its shape — family names, HELP/TYPE lines, label sets — must
// match the golden under testdata/. Sample values are volatile (latencies,
// heap sizes, process-global intern counters) and are scrubbed to 0 before
// comparison; a series appearing or disappearing is the drift this test
// exists to catch. Regenerate with `go test ./internal/server -update`.
package server

import (
	"net/http"
	"regexp"
	"strings"
	"testing"

	"sqlciv/internal/obs/metrics"
)

// sampleValueRE matches one exposition sample line, capturing everything up
// to the value.
var sampleValueRE = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[^}]*\})?) (.+)$`)

// scrubMetrics zeroes every sample value, keeping names, labels, and
// comments byte-exact.
func scrubMetrics(exposition string) string {
	lines := strings.Split(exposition, "\n")
	for i, line := range lines {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		lines[i] = sampleValueRE.ReplaceAllString(line, "$1 0")
	}
	return strings.Join(lines, "\n")
}

func TestGoldenMetricsExposition(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()

	if code, body := post(t, srv, "/v1/analyze", goldenRequest); code != http.StatusOK {
		t.Fatalf("healthy analyze: status %d: %s", code, body)
	}
	if code, body := post(t, srv, "/v1/analyze", degradedRequest); code != http.StatusOK {
		t.Fatalf("degraded analyze: status %d: %s", code, body)
	}
	if code, _ := get(t, srv, "/no-such-endpoint", ""); code != http.StatusNotFound {
		t.Fatalf("expected a 404 to populate the errors series, got %d", code)
	}

	code, body := get(t, srv, "/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", code)
	}
	names, err := metrics.ValidateExposition([]byte(body))
	if err != nil {
		t.Fatalf("served exposition does not parse: %v\n%s", err, body)
	}
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, want := range []string{
		// RED per endpoint
		"sqlcheckd_requests_total", "sqlcheckd_request_seconds",
		"sqlcheckd_errors_total", "sqlcheckd_request_bytes_total",
		"sqlcheckd_request_decode_seconds",
		// queue/admission
		"sqlcheckd_queue_len", "sqlcheckd_queue_capacity", "sqlcheckd_workers",
		"sqlcheckd_jobs_submitted_total", "sqlcheckd_rejected_queue_full_total",
		"sqlcheckd_job_queue_wait_seconds", "sqlcheckd_job_run_seconds",
		// tenants
		"sqlcheckd_tenant_inflight", "sqlcheckd_tenant_jobs_total",
		// analysis
		"sqlciv_hotspots_checked_total", "sqlciv_verdict_memo_hits_total",
		"sqlciv_verdict_cache_warm_pct", "sqlciv_findings_total",
		"sqlciv_degradations_total", "sqlciv_pages_analyzed_total",
		"sqlciv_analysis_seconds", "sqlciv_arena_intern_hits_total",
		// runtime watchdog
		"go_goroutines", "go_heap_alloc_bytes", "go_gc_cycles_total",
	} {
		if !have[want] {
			t.Errorf("/metrics missing family %s", want)
		}
	}
	// The degraded run must surface its cause as a labeled series.
	if !strings.Contains(body, `sqlciv_degradations_total{reason="step-limit"}`) {
		t.Errorf("degradations_total missing the step-limit reason:\n%s", body)
	}
	// The 404 must land in the errors family with its envelope code.
	if !strings.Contains(body, `sqlcheckd_errors_total{endpoint="other",code="not-found"}`) {
		t.Errorf("errors_total missing the 404 sample:\n%s", body)
	}
	checkGolden(t, "golden_metrics.txt", scrubMetrics(body))
}

// TestMetricsCountsExact pins the countable side of the exposition: three
// analyze requests in, exactly three request samples recorded with the right
// statuses and endpoints; and pack requests, GET and POST, counted under
// their own endpoint rather than with unknown paths.
func TestMetricsCountsExact(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	if code, _ := post(t, srv, "/v1/analyze", goldenRequest); code != http.StatusOK {
		t.Fatal(code)
	}
	if code, _ := post(t, srv, "/v1/analyze", degradedRequest); code != http.StatusOK {
		t.Fatal(code)
	}
	if code, _ := post(t, srv, "/v1/analyze", "{"); code != http.StatusBadRequest {
		t.Fatal(code)
	}
	if code, _ := get(t, srv, "/v1/pack", ""); code != http.StatusBadRequest {
		t.Fatal(code) // no root
	}
	if code, _ := post(t, srv, "/v1/pack", "{"); code != http.StatusBadRequest {
		t.Fatal(code)
	}
	snap := srv.MetricsSnapshot()
	if v := snap["sqlcheckd_requests_total{endpoint=/v1/pack,status=400}"]; v != 2 {
		t.Errorf("pack 400s = %v, want 2", v)
	}
	for k := range snap {
		if strings.Contains(k, "endpoint=other") {
			t.Errorf("pack traffic counted as other: %s", k)
		}
	}
	if v := snap["sqlcheckd_requests_total{endpoint=/v1/analyze,status=200}"]; v != 2 {
		t.Errorf("200s = %v, want 2", v)
	}
	if v := snap["sqlcheckd_requests_total{endpoint=/v1/analyze,status=400}"]; v != 1 {
		t.Errorf("400s = %v, want 1", v)
	}
	if v := snap["sqlcheckd_errors_total{endpoint=/v1/analyze,code=bad-request}"]; v != 1 {
		t.Errorf("bad-request errors = %v, want 1", v)
	}
	if v := snap["sqlcheckd_request_seconds_count{endpoint=/v1/analyze}"]; v != 3 {
		t.Errorf("latency observations = %v, want 3", v)
	}
	// Every body read is decoded once, the malformed one included.
	if v := snap["sqlcheckd_request_decode_seconds_count{endpoint=/v1/analyze}"]; v != 3 {
		t.Errorf("decode observations = %v, want 3", v)
	}
	if v := snap["sqlciv_pages_analyzed_total"]; v != 3 {
		// 2 pages in the healthy app + 1 in the degraded app.
		t.Errorf("pages analyzed = %v, want 3", v)
	}
	if v := snap["sqlcheckd_jobs_completed_total"]; v != 2 {
		t.Errorf("jobs completed = %v, want 2", v)
	}
}
