package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/serve"
)

type client struct {
	t   *testing.T
	srv *httptest.Server
}

func newClient(t *testing.T, cfg serve.Config) (*client, *serve.Manager) {
	t.Helper()
	m := serve.NewManager(cfg)
	srv := httptest.NewServer(serve.NewHandler(m))
	t.Cleanup(func() { srv.Close(); m.Close(context.Background()) })
	return &client{t: t, srv: srv}, m
}

// do issues a request and decodes the JSON body into out (skipped when
// out is nil), returning the response for header/status checks.
func (c *client) do(method, path string, body, out any) *http.Response {
	c.t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			c.t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.srv.URL+path, rd)
	if err != nil {
		c.t.Fatalf("request: %v", err)
	}
	resp, err := c.srv.Client().Do(req)
	if err != nil {
		c.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			c.t.Fatalf("%s %s: decode %q: %v", method, path, raw, err)
		}
	}
	return resp
}

func (c *client) want(code int, method, path string, body, out any) {
	c.t.Helper()
	if resp := c.do(method, path, body, out); resp.StatusCode != code {
		c.t.Fatalf("%s %s: status %d, want %d", method, path, resp.StatusCode, code)
	}
}

func TestHTTPAPIRoundTrip(t *testing.T) {
	c, _ := newClient(t, serve.Config{Shards: 2})

	// Create with server-side generation, then with explicit points.
	var created struct {
		ID string `json:"id"`
		N  int    `json:"n"`
	}
	c.want(http.StatusCreated, "POST", "/v1/sessions",
		map[string]any{"id": "gen", "n": 32, "seed": 9}, &created)
	if created.N != 32 {
		t.Fatalf("generated n = %d", created.N)
	}
	c.want(http.StatusCreated, "POST", "/v1/sessions",
		map[string]any{"id": "pts", "points": []map[string]float64{
			{"x": 0, "y": 0}, {"x": 0.5, "y": 0}, {"x": 1.0, "y": 0.2},
		}}, nil)
	c.want(http.StatusConflict, "POST", "/v1/sessions", map[string]any{"id": "pts"}, nil)

	var list struct {
		Sessions []string `json:"sessions"`
	}
	c.want(http.StatusOK, "GET", "/v1/sessions", nil, &list)
	if len(list.Sessions) != 2 || list.Sessions[0] != "gen" || list.Sessions[1] != "pts" {
		t.Fatalf("sessions = %v", list.Sessions)
	}

	// Mutate: one of each op kind; adds return assigned IDs.
	var accepted struct {
		Queued int     `json:"queued"`
		IDs    []int64 `json:"ids"`
	}
	c.want(http.StatusAccepted, "POST", "/v1/sessions/pts/mutations", map[string]any{
		"ops": []map[string]any{
			{"op": "add", "x": 0.25, "y": 0.1},
			{"op": "set_radius", "node": 0, "r": 0.75},
			{"op": "move", "node": 1, "x": 0.4, "y": 0.1},
			{"op": "anneal", "iters": 100, "seed": 5},
		},
	}, &accepted)
	if accepted.Queued != 4 || len(accepted.IDs) != 1 || accepted.IDs[0] != 3 {
		t.Fatalf("accepted = %+v", accepted)
	}

	var flushed struct {
		Seq uint64 `json:"seq"`
	}
	c.want(http.StatusOK, "POST", "/v1/sessions/pts/flush", nil, &flushed)
	if flushed.Seq != 4 {
		t.Fatalf("flushed seq = %d", flushed.Seq)
	}

	var summary struct {
		N     int    `json:"n"`
		Seq   uint64 `json:"seq"`
		Max   int    `json:"max_interference"`
		Queue int    `json:"queue_depth"`
	}
	c.want(http.StatusOK, "GET", "/v1/sessions/pts", nil, &summary)
	if summary.N != 4 || summary.Seq != 4 || summary.Queue != 0 {
		t.Fatalf("summary = %+v", summary)
	}

	var nodes struct {
		Nodes []serve.NodeState `json:"nodes"`
	}
	c.want(http.StatusOK, "GET", "/v1/sessions/pts/nodes", nil, &nodes)
	if len(nodes.Nodes) != 4 {
		t.Fatalf("nodes = %+v", nodes.Nodes)
	}
	var edges struct {
		Edges [][2]int64 `json:"edges"`
	}
	c.want(http.StatusOK, "GET", "/v1/sessions/pts/edges", nil, &edges)
	if len(edges.Edges) == 0 {
		t.Fatalf("no edges on a connected instance")
	}

	c.want(http.StatusOK, "DELETE", "/v1/sessions/pts", nil, nil)
	c.want(http.StatusNotFound, "GET", "/v1/sessions/pts", nil, nil)
	c.want(http.StatusNotFound, "DELETE", "/v1/sessions/pts", nil, nil)
}

func TestHTTPErrors(t *testing.T) {
	c, _ := newClient(t, serve.Config{Shards: 1})
	c.want(http.StatusCreated, "POST", "/v1/sessions", map[string]any{"id": "s", "n": 4}, nil)

	c.want(http.StatusNotFound, "GET", "/v1/sessions/nope", nil, nil)
	c.want(http.StatusNotFound, "POST", "/v1/sessions/nope/mutations",
		map[string]any{"ops": []map[string]any{{"op": "add"}}}, nil)

	// Malformed JSON, unknown op, missing node, invalid values.
	req, _ := http.NewRequest("POST", c.srv.URL+"/v1/sessions", strings.NewReader("{nope"))
	resp, err := c.srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d", resp.StatusCode)
	}
	c.want(http.StatusBadRequest, "POST", "/v1/sessions/s/mutations",
		map[string]any{"ops": []map[string]any{{"op": "explode"}}}, nil)
	c.want(http.StatusBadRequest, "POST", "/v1/sessions/s/mutations",
		map[string]any{"ops": []map[string]any{{"op": "remove"}}}, nil)
	c.want(http.StatusBadRequest, "POST", "/v1/sessions/s/mutations",
		map[string]any{"ops": []map[string]any{{"op": "set_radius", "node": 0, "r": -2}}}, nil)

	// Empty-ID create.
	c.want(http.StatusBadRequest, "POST", "/v1/sessions", map[string]any{"n": 4}, nil)
}

// TestHTTPBackpressure fills a tiny queue behind a gated batch worker and
// expects 429 + Retry-After, then full recovery once the worker resumes.
func TestHTTPBackpressure(t *testing.T) {
	gate := make(chan struct{})
	c, _ := newClient(t, serve.Config{
		Shards: 1, QueueCap: 3,
		BeforeBatch: func(string) { <-gate },
	})
	c.want(http.StatusCreated, "POST", "/v1/sessions", map[string]any{"id": "bp", "n": 4}, nil)

	one := map[string]any{"ops": []map[string]any{{"op": "set_radius", "node": 0, "r": 0.5}}}
	for i := 0; i < 3; i++ {
		c.want(http.StatusAccepted, "POST", "/v1/sessions/bp/mutations", one, nil)
	}
	resp := c.do("POST", "/v1/sessions/bp/mutations", one, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After")
	}

	close(gate) // worker resumes; queue drains
	c.want(http.StatusOK, "POST", "/v1/sessions/bp/flush", nil, nil)
	c.want(http.StatusAccepted, "POST", "/v1/sessions/bp/mutations", one, nil)
}

func TestHTTPHealthAndMetrics(t *testing.T) {
	c, _ := newClient(t, serve.Config{Shards: 1})
	c.want(http.StatusCreated, "POST", "/v1/sessions", map[string]any{"id": "m1", "n": 8}, nil)
	c.want(http.StatusAccepted, "POST", "/v1/sessions/m1/mutations",
		map[string]any{"ops": []map[string]any{{"op": "add", "x": 0.1, "y": 0.1}}}, nil)
	c.want(http.StatusOK, "POST", "/v1/sessions/m1/flush", nil, nil)

	resp := c.do("GET", "/healthz", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d", resp.StatusCode)
	}

	req, _ := http.NewRequest("GET", c.srv.URL+"/metrics", nil)
	mresp, err := c.srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"rimd_sessions_created_total 1",
		"rimd_mutations_enqueued_total 1",
		"rimd_mutations_applied_total 1",
		"rimd_batches_total",
		"rimd_batch_size_bucket{le=\"1\"}",
		"rimd_apply_latency_seconds_bucket{le=\"+Inf\"}",
		"rimd_apply_latency_seconds_count 1",
		`rimd_queue_depth{session="m1"} 0`,
		`rimd_snapshot_age_seconds{session="m1"}`,
		`rimd_session_nodes{session="m1"} 9`,
		`rimd_session_seq{session="m1"} 1`,
		`rimd_http_requests_total{route="create",code="201"} 1`,
		"rimd_sessions 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		fmt.Println(text)
	}
}
