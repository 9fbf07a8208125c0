package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dagsfc/internal/server"
	"dagsfc/internal/server/client"
)

// post sends body to path on one shared connection and returns the status
// and the decoded error envelope (empty on 2xx).
func post(t *testing.T, hc *http.Client, url string, body []byte) (int, string, []byte) {
	t.Helper()
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var eb server.ErrorBody
	_ = json.Unmarshal(raw, &eb)
	return resp.StatusCode, eb.Error, raw
}

// TestRequestBodyRules: a body is one JSON value of at most 1 MiB and
// nothing after it, on both endpoints that read one.
func TestRequestBodyRules(t *testing.T) {
	_, cl := newTestServer(t, server.Config{Net: tinyNet()})
	hc := &http.Client{}
	flow := `{"sfc":"1","src":0,"dst":2,"rate":1,"size":1}`
	fault := `{"kind":"edge-down","link":0}`
	pad := func(n int) []byte { // valid JSON of exactly n bytes: the value, then spaces
		return append([]byte(flow), bytes.Repeat([]byte{' '}, n-len(flow))...)
	}
	cases := []struct {
		name, path string
		body       []byte
		status     int
		says       string
	}{
		{"exactly 1 MiB", "/v1/flows", pad(1 << 20), http.StatusCreated, ""},
		{"1 MiB + 1", "/v1/flows", pad(1<<20 + 1), http.StatusRequestEntityTooLarge, "too large"},
		{"fault over 1 MiB", "/v1/faults", append([]byte(fault), bytes.Repeat([]byte{' '}, 1<<20)...), http.StatusRequestEntityTooLarge, "too large"},
		{"trailing garbage", "/v1/flows", []byte(flow + " trailing-garbage"), http.StatusBadRequest, "bad JSON"},
		{"second value", "/v1/flows", []byte(flow + flow), http.StatusBadRequest, "bad JSON"},
		{"fault trailing garbage", "/v1/faults", []byte(fault + "]"), http.StatusBadRequest, "bad JSON"},
		{"empty", "/v1/flows", nil, http.StatusBadRequest, "bad JSON"},
		{"trailing whitespace", "/v1/flows", []byte(flow + "\n\t "), http.StatusCreated, ""},
	}
	for _, tc := range cases {
		status, msg, _ := post(t, hc, cl.BaseURL()+tc.path, tc.body)
		if status != tc.status || !strings.Contains(msg, tc.says) {
			t.Errorf("%s: status %d %q, want %d mentioning %q", tc.name, status, msg, tc.status, tc.says)
		}
	}
}

// TestPooledBuffersCarryNothingOver sends a long request that sets every
// optional field and then, on the same connection, a short one that sets
// none: whatever the handler keeps between requests (the body buffer, the
// decoded request and its chain's backing array), the short request must
// be judged as if it were the first — and the same for what the client
// keeps between responses.
func TestPooledBuffersCarryNothingOver(t *testing.T) {
	net := tinyNet()
	srv, cl := newTestServer(t, server.Config{Net: net, Workers: 1})
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer hc.CloseIdleConnections()

	long := `{"chain":[1],"max_width":2,"src":0,"dst":2,"rate":0.5,"size":3,` +
		`"ttl_seconds":3600,"alg":"minv","protection":"none"` + strings.Repeat(" ", 4096) + `}`
	status, msg, raw := post(t, hc, cl.BaseURL()+"/v1/flows", []byte(long))
	if status != http.StatusCreated {
		t.Fatalf("long request: %d %s", status, msg)
	}
	var first server.FlowInfo
	if err := json.Unmarshal(raw, &first); err != nil {
		t.Fatal(err)
	}
	if first.Alg != "minv" || first.ExpiresAt == nil || first.Rate != 0.5 || first.Size != 3 {
		t.Fatalf("long request misread: %+v", first)
	}

	// Were the chain left over, this would be "set sfc or chain, not both".
	status, msg, raw = post(t, hc, cl.BaseURL()+"/v1/flows", []byte(`{"sfc":"1","src":0,"dst":2,"rate":1,"size":1}`))
	if status != http.StatusCreated {
		t.Fatalf("short request after a long one: %d %s", status, msg)
	}
	var second server.FlowInfo
	if err := json.Unmarshal(raw, &second); err != nil {
		t.Fatalf("short response carries bytes of the long one: %v in %q", err, raw)
	}
	if second.Alg != "mbbe" || second.ExpiresAt != nil || second.Rate != 1 || second.Size != 1 || second.Protection != "" {
		t.Fatalf("short request inherited fields of the long one: %+v", second)
	}
	// And the other way round: no chain now, then none of the SFC string.
	status, msg, _ = post(t, hc, cl.BaseURL()+"/v1/flows", []byte(`{"src":0,"dst":2,"rate":1,"size":1}`))
	if status != http.StatusBadRequest || !strings.Contains(msg, "one of sfc or chain is required") {
		t.Fatalf("empty request after an sfc one: %d %s", status, msg)
	}

	// Client side: a long response (an error envelope padded by the long
	// algorithm name it quotes), then short ones into fresh structs.
	ctx := context.Background()
	_, err := cl.CreateFlow(ctx, server.FlowRequest{SFC: "1", Src: 0, Dst: 2, Rate: 1, Size: 1, Alg: strings.Repeat("x", 8192)})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Message, "unknown algorithm") {
		t.Fatalf("long error response: %v", err)
	}
	got, err := cl.Flow(ctx, second.ID)
	if err != nil {
		t.Fatalf("short response after a long one: %v", err)
	}
	if got.ID != second.ID || got.Alg != "mbbe" || got.ExpiresAt != nil || got.LastError != "" {
		t.Fatalf("short response inherited fields: %+v", got)
	}
	if got, err = cl.Flow(ctx, first.ID); err != nil || got.ExpiresAt == nil || got.Alg != "minv" {
		t.Fatalf("flow %d read back as %+v, %v", first.ID, got, err)
	}
	if err := cl.Healthz(ctx); err != nil { // a non-JSON body, drained and dropped
		t.Fatal(err)
	}
	if srv.ActiveFlows() != 2 {
		t.Fatalf("active flows = %d, want 2", srv.ActiveFlows())
	}
}

// FuzzCreateBody: POST /v1/flows does with a body exactly what Submit does
// with json.Unmarshal's reading of it into a fresh request — it calls the
// body bad JSON when, and as, Unmarshal does (no more lenient: trailing
// bytes; no stricter), and otherwise reaches the same verdict on the same
// flow, whatever the pooled request it decodes into, and the decoder it
// decodes with, held before (the seeds run in order on one server: a null
// chain element after a real chain must read as zero, not as the last
// request's, and a valid body after a syntax error, a type error or a
// value trailed by whitespace must read as if it came first).
func FuzzCreateBody(f *testing.F) {
	for _, seed := range []string{
		`{"sfc":"1","src":0,"dst":2,"rate":1,"size":1}`,
		`{"chain":[1],"src":0,"dst":2,"rate":1,"size":1,"ttl_seconds":0.01}`,
		`{"chain":[null],"src":0,"dst":2,"rate":1,"size":1}`,
		`{"chain":[1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1],"max_width":-1}`,
		`{"chain":[null,null,null],"src":0,"dst":2,"rate":1,"size":1}`,
		`{"sfc":"1","src":0,"dst":2,"rate":1,"size":1} trailing-garbage`,
		`{"sfc":"1"}{"sfc":"1"}`,
		`{"chain":null,"sfc":"1;1"}`,
		`{"chain":[1.5]}`,
		`{"chain":"1"}`,
		`{"ttl_seconds":1e400}`,
		`{"src":"0"}`,
		`[]`, `null`, `0`, `"x"`, ``, ` `, `{`, `{"sfc":"\ud800"}`, "{\"sfc\":\"\xff\"}",
		`{"SFC":"1","Src":0,"DST":2}`,
		`{"unknown":{"deep":[1,2,{"x":null}]}}`,
		`{"sfc":"1","src":0,"dst":2,"rate":1`, `{"sfc":"1","src":0,"dst":2,"rate":1,"size":1}`,
		`{"src":"0"}`, `{"chain":[1],"src":0,"dst":2,"rate":1,"size":1}`,
		`{}}`, `{"sfc":"1","src":0,"dst":2,"rate":1,"size":1}`,
		"{\"sfc\":\"1\",\"src\":0,\"dst\":2,\"rate\":1,\"size\":1} \n\t\r ", `7 `, `{"chain":[1],"src":0,"dst":2,"rate":1,"size":1}`,
		`{"sfc":"1","src":0,"dst":2,"rate":0.001,"size":1e308}`,
	} {
		f.Add([]byte(seed))
	}
	srv, err := server.New(server.Config{Net: tinyNet(), Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = srv.Close() })
	h := srv.Handler()
	release := func(t *testing.T, id int64) {
		// A TTL the body asked for may have beaten us to it.
		if _, err := srv.Release(id); err != nil && !errors.Is(err, server.ErrNotFound) {
			t.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/flows", bytes.NewReader(body)))
		var got server.FlowInfo
		var eb server.ErrorBody
		if rec.Code == http.StatusCreated {
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Fatal(err)
			}
			release(t, got.ID)
		} else if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" {
			t.Fatalf("status %d without an error envelope: %q", rec.Code, rec.Body.Bytes())
		}

		var fresh server.FlowRequest
		if err := json.Unmarshal(body, &fresh); err != nil {
			if rec.Code != http.StatusBadRequest || eb.Error != "bad JSON: "+err.Error() {
				t.Fatalf("handler says %d %q, json.Unmarshal says %v, for %q", rec.Code, eb.Error, err, body)
			}
			return
		}
		want, err := srv.Submit(context.Background(), fresh)
		if err != nil {
			if eb.Error != err.Error() {
				t.Fatalf("handler says %d %q, Submit of the same request says %v, for %q", rec.Code, eb.Error, err, body)
			}
			return
		}
		release(t, want.ID)
		if rec.Code != http.StatusCreated || got.SFC != want.SFC || got.Src != want.Src || got.Dst != want.Dst ||
			got.Rate != want.Rate || got.Size != want.Size || got.Alg != want.Alg ||
			got.Protection != want.Protection || (got.ExpiresAt == nil) != (want.ExpiresAt == nil) {
			t.Fatalf("handler says %d %+v (%q), Submit of the same request %+v, for %q", rec.Code, got, eb.Error, want, body)
		}
	})
}

// TestClientBaseURLWithPrefix: the client extends the base URL it parsed
// once — a path prefix and a trailing slash in it survive, and queries land
// in the query.
func TestClientBaseURLWithPrefix(t *testing.T) {
	srv, err := server.New(server.Config{Net: tinyNet()})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(http.StripPrefix("/api/v0", srv.Handler()))
	t.Cleanup(func() {
		hs.Close()
		_ = srv.Close()
	})
	cl := client.New(hs.URL+"/api/v0/", hs.Client())
	ctx := context.Background()
	info, err := cl.CreateFlow(ctx, lineRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := cl.Flow(ctx, info.ID); err != nil || got.ID != info.ID {
		t.Fatalf("Flow(%d) = %+v, %v", info.ID, got, err)
	}
	page, err := cl.FlowEvents(ctx, info.ID, 2)
	if err != nil || len(page.Events) != 2 {
		t.Fatalf("FlowEvents limit=2: %d events, %v", len(page.Events), err)
	}
	if page, err = cl.Events(ctx, 0, 3); err != nil || len(page.Events) != 3 || page.Next == 0 {
		t.Fatalf("Events since=0 limit=3: %+v, %v", page, err)
	}
	if _, err := cl.ReleaseFlow(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := client.New("://nope", nil).Flows(ctx); err == nil {
		t.Fatal("a base URL that does not parse must fail every call")
	}
}
