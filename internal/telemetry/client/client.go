// Package client is a small HTTP client for the envmond daemon's query
// API — what a remote tool (envtop -remote) links against instead of the
// collection stack. Document types are shared with the server package
// (internal/telemetry/httpapi), so the two sides cannot drift.
package client

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"envmon/internal/telemetry/httpapi"
)

// Client talks to one envmond daemon (or one envfedd federation
// front-end — the wire types are the same).
type Client struct {
	base string
	http *http.Client
}

// New returns a client for the daemon at base (e.g.
// "http://127.0.0.1:9120"). A trailing slash is tolerated.
func New(base string) *Client {
	return &Client{
		base: strings.TrimRight(base, "/"),
		http: &http.Client{Timeout: 10 * time.Second},
	}
}

// WithTimeout sets the transport-level request timeout (default 10 s) and
// returns the client for chaining. A context deadline shorter than the
// timeout still wins — the federation tier passes per-member deadlines via
// context and uses this only to bound a member that never answers at all.
func (c *Client) WithTimeout(d time.Duration) *Client {
	if d > 0 {
		c.http.Timeout = d
	}
	return c
}

// StatusError is the typed error for a non-200 response, so callers can
// branch on the code (the federation tier treats a member's 404 on a
// filtered query as "no matching series there", not a member failure).
// Retrieve it with errors.As; the rendered message keeps the server's
// error body.
type StatusError struct {
	Code    int
	Message string // server's ErrorBody.Error, "" if the body was not JSON
}

func (e *StatusError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("%s (HTTP %d)", e.Message, e.Code)
	}
	return fmt.Sprintf("HTTP %d", e.Code)
}

func (c *Client) get(ctx context.Context, path string, params url.Values, doc any) error {
	u := c.base + path
	if len(params) > 0 {
		u += "?" + params.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return fmt.Errorf("client: building request: %w", err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s: %w", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return fmt.Errorf("client: reading %s response: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		se := &StatusError{Code: resp.StatusCode}
		var eb httpapi.ErrorBody
		if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
			se.Message = eb.Error
		}
		return fmt.Errorf("client: %s: %w", path, se)
	}
	if err := json.Unmarshal(body, doc); err != nil {
		return fmt.Errorf("client: decoding %s response: %w", path, err)
	}
	return nil
}

// Health fetches /healthz.
func (c *Client) Health(ctx context.Context) (httpapi.Health, error) {
	var h httpapi.Health
	err := c.get(ctx, "/healthz", nil, &h)
	return h, err
}

// Series fetches /series.
func (c *Client) Series(ctx context.Context) ([]httpapi.SeriesInfo, error) {
	var out httpapi.SeriesResult
	if err := c.get(ctx, "/series", nil, &out); err != nil {
		return nil, err
	}
	return out.Series, nil
}

// QueryParams selects series and a window for Query. Zero values are
// wildcards / unbounded, matching the server's defaults.
type QueryParams struct {
	Node       string
	Backend    string
	Domain     string
	From       time.Duration
	To         time.Duration
	Resolution string // "raw" (default), "1s", "10s", "60s"
	Aggregate  string // "none" (default), "mean", "min", "max", "last"
	// Deadline, when positive, is sent as deadline_ms: the server answers
	// 504 within the budget instead of holding the connection open.
	Deadline time.Duration
}

func windowValues(v url.Values, from, to time.Duration) {
	if from != 0 {
		v.Set("from", from.String())
	}
	if to != 0 {
		v.Set("to", to.String())
	}
}

func deadlineValue(v url.Values, d time.Duration) {
	if d > 0 {
		v.Set("deadline_ms", strconv.FormatInt(d.Milliseconds(), 10))
	}
}

// Query fetches /query and returns the frames alone — the common case for
// display tools. A thin wrapper over QueryFull.
func (c *Client) Query(ctx context.Context, p QueryParams) ([]httpapi.Frame, error) {
	out, err := c.QueryFull(ctx, p)
	if err != nil {
		return nil, err
	}
	return out.Frames, nil
}

// QueryFull fetches /query and returns the whole document, including the
// degraded/missing-members section a federated endpoint attaches to
// partial results. Callers that must distinguish "complete answer" from
// "some racks missing" use this.
func (c *Client) QueryFull(ctx context.Context, p QueryParams) (httpapi.QueryResult, error) {
	v := url.Values{}
	if p.Node != "" {
		v.Set("node", p.Node)
	}
	if p.Backend != "" {
		v.Set("backend", p.Backend)
	}
	if p.Domain != "" {
		v.Set("domain", p.Domain)
	}
	windowValues(v, p.From, p.To)
	deadlineValue(v, p.Deadline)
	if p.Resolution != "" {
		v.Set("res", p.Resolution)
	}
	if p.Aggregate != "" {
		v.Set("agg", p.Aggregate)
	}
	var out httpapi.QueryResult
	err := c.get(ctx, "/query", v, &out)
	return out, err
}

// TopKParams parameterizes TopK. K < 0 asks for every node (k=0 on the
// wire); K == 0 leaves the server default (10); an empty Domain means the
// server default ("Total Power").
type TopKParams struct {
	K          int
	Domain     string
	From       time.Duration
	To         time.Duration
	Resolution string
	// Deadline, when positive, is sent as deadline_ms (see QueryParams).
	Deadline time.Duration
}

// TopK fetches /topk.
func (c *Client) TopK(ctx context.Context, p TopKParams) (httpapi.TopKResult, error) {
	v := url.Values{}
	if p.K > 0 {
		v.Set("k", strconv.Itoa(p.K))
	} else if p.K < 0 {
		// The server's default for an absent k is 10; an explicit k=0 is
		// "rank everyone" — what the federation tier needs to merge exactly.
		v.Set("k", "0")
	}
	if p.Domain != "" {
		v.Set("domain", p.Domain)
	}
	windowValues(v, p.From, p.To)
	deadlineValue(v, p.Deadline)
	if p.Resolution != "" {
		v.Set("res", p.Resolution)
	}
	var out httpapi.TopKResult
	err := c.get(ctx, "/topk", v, &out)
	return out, err
}
