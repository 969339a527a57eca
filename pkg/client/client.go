// Package client is the Go client for the ccserve HTTP API. It speaks
// the pkg/api wire types to a running daemon and round-trips every
// endpoint: graph management (LoadGraph/ListGraphs/GetGraph/
// DeleteGraph), the query kinds (SSSP, KSource, ApproxSSSP,
// Reachable), and
// the observability surface (Stats, Metrics, Healthz). Non-2xx
// responses are surfaced as *APIError carrying the daemon's diagnostic.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"github.com/paper-repo-growth/doryp20/pkg/api"
)

// APIError is a non-2xx daemon response: the HTTP status code and the
// error text from the api.Error body.
type APIError struct {
	Status  int
	Message string
}

// Error formats the status and daemon diagnostic.
func (e *APIError) Error() string {
	return fmt.Sprintf("ccserve: status %d: %s", e.Status, e.Message)
}

// Client talks to one ccserve daemon. The zero value is not usable;
// construct with New.
type Client struct {
	base string
	hc   *http.Client
}

// Option configures a Client at New.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles). nil keeps http.DefaultClient.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) {
		if hc != nil {
			c.hc = hc
		}
	}
}

// New returns a Client for the daemon at base, e.g.
// "http://127.0.0.1:7470". A trailing slash on base is tolerated.
func New(base string, opts ...Option) *Client {
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	c := &Client{base: base, hc: http.DefaultClient}
	for _, o := range opts {
		o(c)
	}
	return c
}

// do issues one request, with body sent as contentType when non-nil,
// and decodes a JSON response body into out (skipped when out is nil).
// Non-2xx responses become *APIError.
func (c *Client) do(ctx context.Context, method, path, contentType string, body io.Reader, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("ccserve: building %s %s: %w", method, path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("ccserve: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var apiErr api.Error
		msg := resp.Status
		if json.NewDecoder(resp.Body).Decode(&apiErr) == nil && apiErr.Error != "" {
			msg = apiErr.Error
		}
		return &APIError{Status: resp.StatusCode, Message: msg}
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("ccserve: decoding %s %s response: %w", method, path, err)
	}
	return nil
}

// postJSON marshals req and POSTs it to path, decoding into out.
func (c *Client) postJSON(ctx context.Context, path string, reqBody, out any) error {
	buf, err := json.Marshal(reqBody)
	if err != nil {
		return fmt.Errorf("ccserve: encoding request for %s: %w", path, err)
	}
	return c.do(ctx, http.MethodPost, path, "application/json", bytes.NewReader(buf), out)
}

// LoadGraph uploads an edge-list graph (the internal/graph format:
// optional "p n m" header, "u v [w]" lines) under the given name; an
// empty name lets the daemon assign one. Returns the registered
// graph's info.
func (c *Client) LoadGraph(ctx context.Context, name string, r io.Reader) (api.GraphInfo, error) {
	path := "/graphs"
	if name != "" {
		path += "?name=" + url.QueryEscape(name)
	}
	var info api.GraphInfo
	err := c.do(ctx, http.MethodPost, path, "text/plain", r, &info)
	return info, err
}

// ListGraphs returns every loaded graph, sorted by ID.
func (c *Client) ListGraphs(ctx context.Context) (api.GraphList, error) {
	var list api.GraphList
	err := c.do(ctx, http.MethodGet, "/graphs", "", nil, &list)
	return list, err
}

// GetGraph returns one loaded graph's info.
func (c *Client) GetGraph(ctx context.Context, id string) (api.GraphInfo, error) {
	var info api.GraphInfo
	err := c.do(ctx, http.MethodGet, "/graphs/"+url.PathEscape(id), "", nil, &info)
	return info, err
}

// DeleteGraph unloads a graph and closes its warm serving session.
func (c *Client) DeleteGraph(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/graphs/"+url.PathEscape(id), "", nil, nil)
}

// SSSP runs an exact single-source shortest-path query.
func (c *Client) SSSP(ctx context.Context, id string, source int64) (api.SSSPResponse, error) {
	var resp api.SSSPResponse
	err := c.postJSON(ctx, "/graphs/"+url.PathEscape(id)+"/sssp", api.SSSPRequest{Source: source}, &resp)
	return resp, err
}

// KSource runs an exact k-source query through the batched two-stage
// pipeline; h is the stage-1 hop horizon (0 selects the server
// default).
func (c *Client) KSource(ctx context.Context, id string, sources []int64, h int) (api.KSourceResponse, error) {
	var resp api.KSourceResponse
	err := c.postJSON(ctx, "/graphs/"+url.PathEscape(id)+"/ksource", api.KSourceRequest{Sources: sources, H: h}, &resp)
	return resp, err
}

// ApproxSSSP runs a (1+eps)-approximate single-source query (eps 0
// selects the server default). Concurrent calls at the same (graph,
// eps) may be coalesced server-side into one batched kernel run; the
// response telemetry reports the batch size and hopset-cache outcome.
func (c *Client) ApproxSSSP(ctx context.Context, id string, source int64, eps float64) (api.ApproxSSSPResponse, error) {
	var resp api.ApproxSSSPResponse
	err := c.postJSON(ctx, "/graphs/"+url.PathEscape(id)+"/approx-sssp", api.ApproxSSSPRequest{Source: source, Eps: eps}, &resp)
	return resp, err
}

// Reachable reports which vertices the source can reach. The daemon
// answers the first query on a graph with a transitive-closure kernel
// run and every later query from its cached closure (CacheHit true,
// zero rounds).
func (c *Client) Reachable(ctx context.Context, id string, source int64) (api.ReachableResponse, error) {
	var resp api.ReachableResponse
	err := c.postJSON(ctx, "/graphs/"+url.PathEscape(id)+"/reachable", api.ReachableRequest{Source: source}, &resp)
	return resp, err
}

// Stats returns per-graph session accounting and daemon query totals.
func (c *Client) Stats(ctx context.Context) (api.StatsResponse, error) {
	var resp api.StatsResponse
	err := c.do(ctx, http.MethodGet, "/stats", "", nil, &resp)
	return resp, err
}

// Metrics returns the raw Prometheus text exposition of /metrics.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", fmt.Errorf("ccserve: building GET /metrics: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", fmt.Errorf("ccserve: GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("ccserve: reading /metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", &APIError{Status: resp.StatusCode, Message: string(body)}
	}
	return string(body), nil
}

// Healthz probes the daemon's liveness endpoint.
func (c *Client) Healthz(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return fmt.Errorf("ccserve: building GET /healthz: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("ccserve: GET /healthz: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &APIError{Status: resp.StatusCode, Message: resp.Status}
	}
	return nil
}
