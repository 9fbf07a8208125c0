// Package client is the typed Go client of the dagsfc-serve control
// plane. It speaks the JSON API of internal/server with that package's
// own wire types, so an in-process test, the load generator and a remote
// operator tool all round-trip the same structs.
package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"dagsfc/internal/jsonbuf"
	"dagsfc/internal/server"
	"dagsfc/internal/telemetry"
)

// Client talks to one dagsfc-serve instance.
type Client struct {
	base string
	// url is base parsed once; every request copies it and extends the
	// path. urlErr is why it could not be parsed, reported by every call.
	url    *url.URL
	urlErr error
	http   *http.Client
}

// New returns a client for the server at baseURL (e.g.
// "http://localhost:8080"). httpClient may be nil for the default.
func New(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	c := &Client{base: strings.TrimRight(baseURL, "/"), http: httpClient}
	if c.url, c.urlErr = url.Parse(c.base); c.urlErr == nil {
		c.url.Host = strings.TrimSuffix(c.url.Host, ":") // "host:" names the default port
	}
	return c
}

// APIError is a non-2xx response, carrying the server's error envelope.
type APIError struct {
	StatusCode int
	Message    string
	// RetryAfter is the server's Retry-After hint (zero when absent) — set
	// on 503 responses shed by the admission circuit breaker.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.StatusCode, e.Message)
}

// Retryable reports whether the rejection is transient: the request may
// succeed if simply resent later (queue overflow, commit conflict, or
// breaker shedding).
func (e *APIError) Retryable() bool {
	switch e.StatusCode {
	case http.StatusTooManyRequests, http.StatusConflict, http.StatusServiceUnavailable:
		return true
	}
	return false
}

// CreateFlow embeds and commits one flow (POST /v1/flows).
func (c *Client) CreateFlow(ctx context.Context, req server.FlowRequest) (server.FlowInfo, error) {
	return c.flowCall(ctx, http.MethodPost, "/v1/flows", &req)
}

// ReleaseFlow returns a flow's capacity (DELETE /v1/flows/{id}).
func (c *Client) ReleaseFlow(ctx context.Context, id int64) (server.FlowInfo, error) {
	return c.flowCall(ctx, http.MethodDelete, flowPath(id, ""), nil)
}

// Flow fetches one committed flow (GET /v1/flows/{id}).
func (c *Client) Flow(ctx context.Context, id int64) (server.FlowInfo, error) {
	return c.flowCall(ctx, http.MethodGet, flowPath(id, ""), nil)
}

// Flows lists the committed flows (GET /v1/flows).
func (c *Client) Flows(ctx context.Context) ([]server.FlowInfo, error) {
	var out []server.FlowInfo
	err := c.do(ctx, http.MethodGet, "/v1/flows", "", nil, &out)
	return out, err
}

// Network snapshots the residual network (GET /v1/network).
func (c *Client) Network(ctx context.Context) (server.NetworkState, error) {
	var st server.NetworkState
	err := c.do(ctx, http.MethodGet, "/v1/network", "", nil, &st)
	return st, err
}

// ApplyFault injects one substrate fault (POST /v1/faults).
func (c *Client) ApplyFault(ctx context.Context, f server.FaultRequest) (server.FaultState, error) {
	var st server.FaultState
	err := c.do(ctx, http.MethodPost, "/v1/faults", "", f, &st)
	return st, err
}

// RestoreFault restores a previously injected fault (POST
// /v1/faults/restore).
func (c *Client) RestoreFault(ctx context.Context, f server.FaultRequest) (server.FaultState, error) {
	var st server.FaultState
	err := c.do(ctx, http.MethodPost, "/v1/faults/restore", "", f, &st)
	return st, err
}

// Faults reports the active faults and lifetime counters (GET /v1/faults).
func (c *Client) Faults(ctx context.Context) (server.FaultState, error) {
	var st server.FaultState
	err := c.do(ctx, http.MethodGet, "/v1/faults", "", nil, &st)
	return st, err
}

// FlowEvents fetches one flow's journal timeline (GET
// /v1/flows/{id}/events). limit > 0 keeps only the most recent limit
// events.
func (c *Client) FlowEvents(ctx context.Context, id int64, limit int) (server.EventsPage, error) {
	query := ""
	if limit > 0 {
		query = "limit=" + strconv.Itoa(limit)
	}
	var page server.EventsPage
	err := c.do(ctx, http.MethodGet, flowPath(id, "/events"), query, nil, &page)
	return page, err
}

// Events pages the global journal (GET /v1/events): pass 0 to start from
// the oldest retained event, then the returned Next as since for each
// following page. limit 0 uses the server default page size.
func (c *Client) Events(ctx context.Context, since uint64, limit int) (server.EventsPage, error) {
	query := "since=" + strconv.FormatUint(since, 10)
	if limit > 0 {
		query += "&limit=" + strconv.Itoa(limit)
	}
	var page server.EventsPage
	err := c.do(ctx, http.MethodGet, "/v1/events", query, nil, &page)
	return page, err
}

// Healthz reports nil while the server is admitting flows.
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", "", nil, nil)
}

// Metrics scrapes /metrics as Prometheus text.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", &APIError{StatusCode: resp.StatusCode, Message: strings.TrimSpace(string(body))}
	}
	return string(body), nil
}

// MetricsSnapshot scrapes /metrics as the typed snapshot the text is
// rendered from (GET /metrics?format=json).
func (c *Client) MetricsSnapshot(ctx context.Context) (telemetry.Snapshot, error) {
	var snap telemetry.Snapshot
	err := c.do(ctx, http.MethodGet, "/metrics", "format=json", nil, &snap)
	return snap, err
}

// flowPath is "/v1/flows/{id}" + suffix.
func flowPath(id int64, suffix string) string {
	var stack [48]byte
	b := append(stack[:0], "/v1/flows/"...)
	b = strconv.AppendInt(b, id, 10)
	return string(append(b, suffix...))
}

// exchange is what one call keeps for the next: the buffer its request
// body is encoded into and its response read into, with encoding/json's
// state kept beside it, and the slots flowCall encodes a FlowRequest from
// and decodes a FlowInfo into, so that neither is boxed into an interface.
// exchanges recycles them; one whose buffer grew past maxPooledBuf (a large
// network snapshot) is left to the collector.
type exchange struct {
	buf  jsonbuf.Buffer
	req  server.FlowRequest
	info server.FlowInfo
}

var exchanges = sync.Pool{New: func() any { return new(exchange) }}

const maxPooledBuf = 64 << 10

func (x *exchange) release() {
	x.req, x.info = server.FlowRequest{}, server.FlowInfo{}
	if x.buf.Cap() <= maxPooledBuf {
		exchanges.Put(x)
	}
}

// jsonContentType is the header value every request body shares: assigned
// to the header map as is, where Header.Set would allocate a one-element
// slice per request. Nothing writes to it.
var jsonContentType = []string{"application/json"}

// newRequest builds the request NewRequestWithContext would for
// base+path?query, from the base URL parsed once: path and query are
// already in their escaped form (the API's are plain ASCII).
func (c *Client) newRequest(ctx context.Context, method, path, query string, body []byte) (*http.Request, error) {
	if c.urlErr != nil {
		return nil, c.urlErr
	}
	if ctx == nil {
		return nil, errors.New("client: nil Context")
	}
	u := *c.url
	u.Path += path
	if u.RawPath != "" {
		u.RawPath += path
	}
	u.RawQuery = query
	req := &http.Request{
		Method: method, URL: &u, Host: u.Host,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: make(http.Header, 1),
	}
	if body != nil {
		req.Header["Content-Type"] = jsonContentType
		req.ContentLength = int64(len(body))
		// A *bytes.Reader under NopCloser is a body the transport knows to
		// be in memory: it sends it in the same write as the headers.
		req.GetBody = func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(body)), nil
		}
		req.Body, _ = req.GetBody()
	}
	return req.WithContext(ctx), nil
}

// flowCall is a call answered with one FlowInfo, sending req as its body
// unless req is nil.
func (c *Client) flowCall(ctx context.Context, method, path string, req *server.FlowRequest) (server.FlowInfo, error) {
	x := exchanges.Get().(*exchange)
	defer x.release()
	var in any
	if req != nil {
		x.req = *req
		in = &x.req
	}
	err := c.send(ctx, x, method, path, "", in, &x.info)
	return x.info, err
}

func (c *Client) do(ctx context.Context, method, path, query string, in, out any) error {
	x := exchanges.Get().(*exchange)
	defer x.release()
	return c.send(ctx, x, method, path, query, in, out)
}

// send makes one call through x: in (nil for none) is the request body,
// and the response, read whole into x's buffer, is decoded into out (nil
// to drop it).
func (c *Client) send(ctx context.Context, x *exchange, method, path, query string, in, out any) error {
	var body []byte
	if in != nil {
		if err := x.buf.Encode(in); err != nil {
			return err
		}
		// The transport may read a request body after RoundTrip has
		// returned, so the body is a copy of the buffer, at its exact size,
		// less the newline json.Marshal would not have written.
		body = make([]byte, x.buf.Len()-1)
		copy(body, x.buf.Bytes())
	}
	req, err := c.newRequest(ctx, method, path, query, body)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	// The body is read to its end whatever becomes of it, so the
	// connection goes back to the transport's idle pool.
	x.buf.Reset()
	if _, err := x.buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var eb server.ErrorBody
		msg := resp.Status
		if x.buf.Decode(&eb) == nil && eb.Error != "" {
			msg = eb.Error
		}
		apiErr := &APIError{StatusCode: resp.StatusCode, Message: msg}
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
		return apiErr
	}
	if out == nil {
		return nil
	}
	return x.buf.Decode(out)
}
