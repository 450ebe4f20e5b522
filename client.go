package sqlciv

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"sqlciv/internal/server"
)

// The analyze-service wire types, re-exported for clients the same way
// Options/AppResult re-export the core types. A Response's findings carry
// the raw library Check/Label values, so Finding.Core() reconstructs the
// exact core.Finding an in-process run would have produced.
type (
	// AnalyzeRequest is the body of POST /v1/analyze and POST /v1/jobs.
	AnalyzeRequest = server.Request
	// AnalyzeRequestOptions mirrors the analysis knobs on the wire.
	AnalyzeRequestOptions = server.RequestOptions
	// AnalyzeRequestBudget is budget.Limits in wire milliseconds.
	AnalyzeRequestBudget = server.RequestBudget
	// AnalyzeResponse is the served findings/degradations/stats payload.
	AnalyzeResponse = server.Response
	// JobStatus is one async job's state, progress snapshot, and report.
	JobStatus = server.JobStatus
	// ServerStats is the /debug/server counter snapshot.
	ServerStats = server.StatsSnapshot
	// ServerConfig sizes an embedded analysis server.
	ServerConfig = server.Config
	// ServerTenant configures one client class (budget ceiling + in-flight
	// cap) on an analysis server.
	ServerTenant = server.Tenant
)

// NewServer starts an embedded analysis-service instance (the same engine
// cmd/sqlcheckd runs); expose it with its Handler method and stop it with
// Close.
func NewServer(cfg ServerConfig) *server.Server { return server.New(cfg) }

// APIError is a non-2xx daemon response: the structured error envelope plus
// the HTTP status and any Retry-After hint (set on 429 admission refusals).
type APIError struct {
	Status     int
	Code       string
	Message    string
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("sqlcheckd: %s (%d %s)", e.Message, e.Status, e.Code)
}

// Client is a minimal sqlcheckd client, used by the e2e test harness and CI
// smoke jobs and small enough to vendor into other tools.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://localhost:7433".
	BaseURL string
	// Tenant, when nonempty, is sent as the X-Sqlciv-Tenant header.
	Tenant string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
}

// NewServiceClient returns a Client for the daemon at baseURL.
func NewServiceClient(baseURL string) *Client { return &Client{BaseURL: baseURL} }

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// encodeBody renders a request body as JSON without encoding/json's HTML
// escaping: PHP sources are full of '<', '>' and '&', and each would
// otherwise cross the wire as a six-byte \u003c-style escape.
func encodeBody(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, fmt.Errorf("sqlcheckd client: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// do runs one request and decodes the JSON body into out (or the error
// envelope into an *APIError).
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := encodeBody(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return fmt.Errorf("sqlcheckd client: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Tenant != "" {
		req.Header.Set(server.TenantHeader, c.Tenant)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("sqlcheckd client: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return fmt.Errorf("sqlcheckd client: read: %w", err)
	}
	if resp.StatusCode/100 != 2 {
		apiErr := &APIError{Status: resp.StatusCode, Code: "unknown", Message: string(data)}
		var env struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if json.Unmarshal(data, &env) == nil && env.Error.Code != "" {
			apiErr.Code, apiErr.Message = env.Error.Code, env.Error.Message
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.Atoi(ra); err == nil {
				apiErr.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		return apiErr
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("sqlcheckd client: decode %s: %w", path, err)
	}
	return nil
}

// Analyze submits an application synchronously and returns the full report.
func (c *Client) Analyze(ctx context.Context, req *AnalyzeRequest) (*AnalyzeResponse, error) {
	var out AnalyzeResponse
	if err := c.do(ctx, http.MethodPost, "/v1/analyze", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SubmitJob submits an application asynchronously and returns the queued
// job's status (its ID polls via Job / WaitJob).
func (c *Client) SubmitJob(ctx context.Context, req *AnalyzeRequest) (*JobStatus, error) {
	var out JobStatus
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Job fetches one job's status. A nonzero wait long-polls: the daemon
// answers as soon as the job completes or the wait elapses.
func (c *Client) Job(ctx context.Context, id string, wait time.Duration) (*JobStatus, error) {
	path := "/v1/jobs/" + url.PathEscape(id)
	if wait > 0 {
		path += "?wait=" + url.QueryEscape(wait.String())
	}
	var out JobStatus
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// WaitJob long-polls id until it reaches a terminal state and returns the
// final report (or the job's failure as an *APIError).
func (c *Client) WaitJob(ctx context.Context, id string) (*AnalyzeResponse, error) {
	for {
		st, err := c.Job(ctx, id, 5*time.Second)
		if err != nil {
			return nil, err
		}
		switch st.State {
		case server.StateDone:
			return st.Result, nil
		case server.StateFailed:
			if st.Error != nil {
				return nil, &APIError{Status: http.StatusUnprocessableEntity,
					Code: st.Error.Code, Message: st.Error.Message}
			}
			return nil, &APIError{Status: http.StatusInternalServerError,
				Code: "unknown", Message: "job failed without error detail"}
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sqlcheckd client: waiting for %s: %w", id, err)
		}
	}
}

// ServerStats fetches the daemon's /debug/server counter snapshot (queue
// depth, per-tenant budget trips, verdict-cache hit rates, intern census).
func (c *Client) ServerStats(ctx context.Context) (*ServerStats, error) {
	var out ServerStats
	if err := c.do(ctx, http.MethodGet, "/debug/server", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Pack submits an application via POST /v1/pack and returns the compiled
// runtime policy pack bytes (load them with sqlciv/enforce or write them
// to disk for cmd/sqlguard). The daemon forces emit_pack on, so req need
// not set it. The pack's coverage summary rides the X-Sqlciv-Pack-*
// response headers; for the full stats alongside the findings use Analyze
// with Options.EmitPack instead.
func (c *Client) Pack(ctx context.Context, req *AnalyzeRequest) ([]byte, error) {
	data, err := encodeBody(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/pack", bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("sqlcheckd client: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if c.Tenant != "" {
		hreq.Header.Set(server.TenantHeader, c.Tenant)
	}
	resp, err := c.httpClient().Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("sqlcheckd client: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return nil, fmt.Errorf("sqlcheckd client: read: %w", err)
	}
	if resp.StatusCode/100 != 2 {
		apiErr := &APIError{Status: resp.StatusCode, Code: "unknown", Message: string(body)}
		var env struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if json.Unmarshal(body, &env) == nil && env.Error.Code != "" {
			apiErr.Code, apiErr.Message = env.Error.Code, env.Error.Message
		}
		return nil, apiErr
	}
	return body, nil
}
