// fuzz_test.go throws arbitrary bytes at the daemon's front door. The
// invariant: whatever a client posts — malformed JSON, truncated bodies,
// unknown fields, oversized payloads, bogus resolver roots, non-PHP noise —
// the daemon answers a known status with a well-formed JSON body (the
// report on 2xx, the structured error envelope otherwise) and never
// panics. `make fuzz-smoke` burns this target alongside the parser and
// automata fuzzers.
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sqlciv/internal/budget"
	"sqlciv/internal/server"
)

// fuzzStatuses are the only statuses the front door may answer.
var fuzzStatuses = map[int]bool{
	http.StatusOK:                    true, // well-formed app analyzed
	http.StatusBadRequest:            true, // malformed request
	http.StatusForbidden:             true, // filesystem root refused
	http.StatusRequestEntityTooLarge: true, // over MaxBodyBytes
	http.StatusUnprocessableEntity:   true, // app failed to analyze
	http.StatusTooManyRequests:       true, // queue or tenant cap
	http.StatusServiceUnavailable:    true, // shutting down
}

func FuzzServerRequest(f *testing.F) {
	// Seeds: one valid request, then the malformed shapes the decoder must
	// refuse cleanly.
	f.Add([]byte(`{"sources":{"a.php":"<?php mysql_query(\"SELECT \" . $_GET['x']); ?>"},"entries":["a.php"]}`))
	f.Add([]byte(`{"sources":{"a.php":"<?php echo 1; ?>"}}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`"just a string"`))
	f.Add([]byte(`{"unknown_field":1}`))
	f.Add([]byte(`{"sources":{"a.php":"x"},"entries":["a.php"]} trailing garbage`))
	f.Add([]byte(`{"sources":{"a.php":"x"},"root":"/also/a/root"}`))
	f.Add([]byte(`{"root":"/etc"}`))
	f.Add([]byte(`{"root":"../../../etc/passwd"}`))
	f.Add([]byte(`{"sources":{"":"empty path"},"entries":[""]}`))
	f.Add([]byte(`{"sources":{"a.php":"x"},"entries":["missing.php"]}`))
	f.Add([]byte(`{"sources":{"a.php":"x"},"entries":["a.php"],"budget":{"max_steps":-1}}`))
	f.Add([]byte(`{"sources":{"a.php":"x"},"entries":["a.php"],"budget":{"timeout_ms":9223372036854775807}}`))
	f.Add([]byte(`{"sources":{"a.php":"\xff\xfe not utf8"},"entries":["a.php"]}`))
	f.Add([]byte(`{"sources":{"a.php":"<?php while(1){} ?>"},"entries":["a.php"],"options":{"parallel":999999}}`))
	f.Add(bytes.Repeat([]byte(`{"sources":{"a.php":"p"}}`), 100))
	f.Add([]byte(`{"sources":{"a.php":"x"}}}`))
	f.Add([]byte(`{"sources":{"a.php":"x"},"entries":["a.php"]}]]]}}}`))

	// One shared server for the whole run: small body cap so the fuzzer can
	// reach the 413 path, a tiny step ceiling so adversarial PHP cannot make
	// iterations slow, and no persistent store (nothing worth persisting).
	srv := server.New(server.Config{
		Workers:      2,
		QueueDepth:   8,
		MaxBodyBytes: 1 << 16,
		DefaultTenant: server.Tenant{
			Limits: budget.Limits{MaxSteps: 2000},
		},
	})
	handler := srv.Handler()
	f.Cleanup(func() { srv.Close() })

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/v1/analyze", "/v1/jobs"} {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req) // recoverMiddleware turns any panic into 500; none allowed
			status := rec.Code
			if path == "/v1/jobs" && status == http.StatusAccepted {
				status = http.StatusOK
			}
			if !fuzzStatuses[status] {
				t.Fatalf("POST %s %q: status %d outside the contract (body %q)",
					path, truncate(body), rec.Code, truncate(rec.Body.Bytes()))
			}
			if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Fatalf("POST %s %q: content type %q, want application/json", path, truncate(body), ct)
			}
			var payload map[string]any
			if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
				t.Fatalf("POST %s %q: %d body is not a JSON object: %v\n%s",
					path, truncate(body), rec.Code, err, truncate(rec.Body.Bytes()))
			}
			if rec.Code >= 400 {
				env, ok := payload["error"].(map[string]any)
				if !ok {
					t.Fatalf("POST %s %q: %d without error envelope: %s",
						path, truncate(body), rec.Code, truncate(rec.Body.Bytes()))
				}
				if code, _ := env["code"].(string); code == "" {
					t.Fatalf("POST %s %q: %d error without a code", path, truncate(body), rec.Code)
				}
				if msg, _ := env["message"].(string); strings.Contains(msg, "goroutine ") {
					t.Fatalf("POST %s %q: error message leaks a stack trace", path, truncate(body))
				}
			}
		}
	})
}

func truncate(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}

// TestOversizedBody413 covers the one path the in-process fuzz harness
// cannot reach realistically: a body larger than MaxBodyBytes arriving over
// a real connection must answer 413 with the structured envelope, whether
// its Content-Length declares the size (refused before it is read) or it
// arrives chunked (refused once the cap is passed).
func TestOversizedBody413(t *testing.T) {
	_, client := newTestService(t, server.Config{Workers: 1, MaxBodyBytes: 1 << 16})
	ctx := context.Background()
	httpClient := http.DefaultClient
	// Well-formed JSON bigger than the cap, so the 413 cannot come from a
	// syntax error.
	body := []byte(`{"sources":{"a.php":"` + strings.Repeat("x", 1<<17) + `"},"entries":["a.php"]}`)
	for name, rd := range map[string]io.Reader{
		"declared": bytes.NewReader(body),
		"chunked":  struct{ io.Reader }{bytes.NewReader(body)}, // hides the length
	} {
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, client.BaseURL+"/v1/analyze", rd)
		resp, err := httpClient.Do(req)
		if err != nil {
			t.Fatalf("%s oversized POST: %v", name, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s oversized body: status %d, want 413", name, resp.StatusCode)
		}
		var env struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error.Code == "" {
			t.Fatalf("%s 413 body not a structured envelope: %v", name, err)
		}
	}
}
