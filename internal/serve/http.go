package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/obs"
)

// HTTP/JSON front door. Routes (Go 1.22 pattern syntax):
//
//	GET    /healthz                     liveness (503 once the WAL has failed)
//	GET    /metrics                     Prometheus text exposition
//	POST   /v1/sessions                 create a session
//	GET    /v1/sessions                 list session IDs
//	GET    /v1/sessions/{id}            summary (from the snapshot)
//	DELETE /v1/sessions/{id}            drop a session
//	POST   /v1/sessions/{id}/mutations  enqueue mutations (202; 429 = backpressure)
//	POST   /v1/sessions/{id}/flush      wait until the queue drains
//	GET    /v1/sessions/{id}/nodes      per-node state
//	GET    /v1/sessions/{id}/edges      maintained topology edges
//
// Every read is served from the session's published snapshot; no read
// path takes a session lock.

type pointJSON struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

type createReq struct {
	ID     string      `json:"id"`
	Points []pointJSON `json:"points,omitempty"`
	// Alternatively, generate a uniform instance server-side:
	N    int     `json:"n,omitempty"`
	Seed int64   `json:"seed,omitempty"`
	Side float64 `json:"side,omitempty"` // 0 = sqrt(n)/5
	// Measure picks the interference measure: "graph" (default) or
	// "sinr". Empty falls back to the server's -measure setting.
	Measure string `json:"measure,omitempty"`
}

type opJSON struct {
	Op    string  `json:"op"`
	Node  *int64  `json:"node,omitempty"`
	X     float64 `json:"x,omitempty"`
	Y     float64 `json:"y,omitempty"`
	R     float64 `json:"r,omitempty"`
	Iters int     `json:"iters,omitempty"`
	Seed  int64   `json:"seed,omitempty"`
}

type mutateReq struct {
	Ops []opJSON `json:"ops"`
}

type summaryJSON struct {
	ID       string  `json:"id"`
	N        int     `json:"n"`
	Max      int     `json:"max_interference"`
	Avg      float64 `json:"avg_interference"`
	Edges    int     `json:"edges"`
	Seq      uint64  `json:"seq"`
	Events   int     `json:"events"`
	Rebuilds int     `json:"rebuilds"`
	AgeMS    float64 `json:"snapshot_age_ms"`
	Queue    int     `json:"queue_depth"`
	// Measure is emitted only for non-graph sessions, keeping graph
	// summaries byte-identical to the pre-measure format.
	Measure string `json:"measure,omitempty"`
}

type errJSON struct {
	Error string `json:"error"`
}

// NewHandler mounts the service API over a manager.
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	h := &api{m: m}
	mux.HandleFunc("GET /healthz", h.route("healthz", h.healthz))
	mux.HandleFunc("GET /metrics", h.route("metrics", h.metrics))
	mux.HandleFunc("POST /v1/sessions", h.route("create", h.create))
	mux.HandleFunc("GET /v1/sessions", h.route("list", h.list))
	mux.HandleFunc("GET /v1/sessions/{id}", h.route("summary", h.summary))
	mux.HandleFunc("DELETE /v1/sessions/{id}", h.route("drop", h.drop))
	mux.HandleFunc("POST /v1/sessions/{id}/mutations", h.route("mutate", h.mutate))
	mux.HandleFunc("POST /v1/sessions/{id}/flush", h.route("flush", h.flush))
	mux.HandleFunc("GET /v1/sessions/{id}/nodes", h.route("nodes", h.nodes))
	mux.HandleFunc("GET /v1/sessions/{id}/edges", h.route("edges", h.edges))
	return mux
}

type api struct{ m *Manager }

// statusWriter captures the response code for the request counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.code = code
	sw.ResponseWriter.WriteHeader(code)
}

// route wraps a handler with request counting and panic containment.
func (h *api) route(name string, fn func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			if p := recover(); p != nil {
				writeErr(sw, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", p))
			}
			h.m.metrics.IncHTTP(name, sw.code)
		}()
		fn(sw, r)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errJSON{Error: msg})
}

func (h *api) session(w http.ResponseWriter, r *http.Request) (*Session, bool) {
	s, ok := h.m.Session(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such session")
	}
	return s, ok
}

// healthz answers ok until the WAL fails. After that the manager keeps
// serving from memory but acknowledged writes are no longer durable, so
// the probe turns 503 and names the error.
func (h *api) healthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	if err := h.m.WALError(); err != nil {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "wal failed:", err)
		return
	}
	fmt.Fprintln(w, "ok")
}

func (h *api) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	h.m.WriteMetrics(w)
	// Registry-backed families (rim_core_*, rim_dynamic_*, …) render after
	// the legacy rimd_* block, whose byte layout the golden test locks.
	obs.Default().WritePrometheus(w)
}

func (h *api) create(w http.ResponseWriter, r *http.Request) {
	var req createReq
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	var pts []geom.Point
	switch {
	case len(req.Points) > 0:
		pts = make([]geom.Point, len(req.Points))
		for i, p := range req.Points {
			pts[i] = geom.Pt(p.X, p.Y)
		}
	case req.N > 0:
		side := req.Side
		if side <= 0 {
			side = math.Sqrt(float64(req.N)) / 5
		}
		pts = gen.UniformSquare(rand.New(rand.NewSource(req.Seed)), req.N, side)
	}
	s, err := h.m.CreateSessionMeasure(req.ID, pts, req.Measure)
	switch {
	case errors.Is(err, ErrSessionExists):
		writeErr(w, http.StatusConflict, err.Error())
	case errors.Is(err, ErrReadOnly):
		writeErr(w, http.StatusForbidden, err.Error())
	case errors.Is(err, ErrClosed):
		writeErr(w, http.StatusServiceUnavailable, err.Error())
	case err != nil:
		writeErr(w, http.StatusBadRequest, err.Error())
	default:
		writeJSON(w, http.StatusCreated, map[string]any{"id": s.ID(), "n": s.Snapshot().N})
	}
}

func (h *api) list(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"sessions": h.m.SessionIDs()})
}

func (h *api) summary(w http.ResponseWriter, r *http.Request) {
	s, ok := h.session(w, r)
	if !ok {
		return
	}
	head := s.Head()
	sj := summaryJSON{
		ID: s.ID(), N: head.N, Max: head.Max, Avg: head.Avg,
		Edges: head.Edges, Seq: head.Seq, Events: head.Events,
		Rebuilds: head.Rebuilds, AgeMS: float64(head.Age()) / float64(time.Millisecond),
		Queue: s.QueueDepth(),
	}
	if mea := s.Measure(); mea != MeasureGraph {
		sj.Measure = mea
	}
	writeJSON(w, http.StatusOK, sj)
}

func (h *api) drop(w http.ResponseWriter, r *http.Request) {
	if err := h.m.DropSession(r.PathValue("id")); err != nil {
		if errors.Is(err, ErrReadOnly) {
			writeErr(w, http.StatusForbidden, err.Error())
			return
		}
		writeErr(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"dropped": r.PathValue("id")})
}

// mutate enqueues a batch of mutations. Backpressure surfaces as 429 with
// Retry-After; the client is expected to wait and resubmit.
func (h *api) mutate(w http.ResponseWriter, r *http.Request) {
	s, ok := h.session(w, r)
	if !ok {
		return
	}
	var req mutateReq
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	muts := make([]Mutation, 0, len(req.Ops))
	for i, op := range req.Ops {
		kind, known := opFromString(op.Op)
		if !known {
			writeErr(w, http.StatusBadRequest, fmt.Sprintf("ops[%d]: unknown op %q", i, op.Op))
			return
		}
		mu := Mutation{Op: kind, Node: -1, X: op.X, Y: op.Y, R: op.R, Iters: op.Iters, Seed: op.Seed}
		if op.Node != nil {
			mu.Node = *op.Node
		} else if kind != OpAdd && kind != OpAnneal {
			writeErr(w, http.StatusBadRequest, fmt.Sprintf("ops[%d]: %s requires node", i, kind))
			return
		}
		muts = append(muts, mu)
	}
	var tc *obs.TraceContext
	if obs.On() && len(muts) > 0 {
		t := traceFromHeader(r.Header.Get("X-Rim-Trace"))
		tc = &t
		muts[0].TC = tc
	}
	ids, err := s.Apply(muts...)
	if tc != nil {
		// Echoed on every outcome, including backpressure — the client
		// retries under the same trace.
		w.Header().Set("X-Rim-Trace", formatTraceHeader(*tc))
	}
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrSessionClosed):
		writeErr(w, http.StatusGone, err.Error())
	case errors.Is(err, ErrReadOnly):
		writeErr(w, http.StatusForbidden, err.Error())
	case err != nil:
		writeErr(w, http.StatusBadRequest, err.Error())
	default:
		writeJSON(w, http.StatusAccepted, map[string]any{"queued": len(muts), "ids": ids})
	}
}

// traceFromHeader resurrects a caller-supplied trace context from an
// X-Rim-Trace header ("<trace hex>-<parent span hex>-<flags hex>"), or
// mints a fresh sampled root when the header is absent or malformed —
// the HTTP facade is a trace edge, so every mutate is traced while
// observability is on.
func traceFromHeader(v string) obs.TraceContext {
	if v != "" {
		var tid, sid, fl uint64
		if n, err := fmt.Sscanf(v, "%x-%x-%x", &tid, &sid, &fl); n == 3 && err == nil && tid != 0 && fl <= 0xff {
			return obs.TraceContext{TraceID: tid, SpanID: sid, Flags: uint8(fl)}
		}
	}
	return obs.TraceContext{TraceID: obs.NewTraceID(), Flags: obs.TraceFlagSampled}
}

// formatTraceHeader inverts traceFromHeader.
func formatTraceHeader(tc obs.TraceContext) string {
	return fmt.Sprintf("%016x-%016x-%02x", tc.TraceID, tc.SpanID, tc.Flags)
}

func (h *api) flush(w http.ResponseWriter, r *http.Request) {
	s, ok := h.session(w, r)
	if !ok {
		return
	}
	if err := s.Flush(r.Context()); err != nil {
		writeErr(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"seq": s.Snapshot().Seq})
}

func (h *api) nodes(w http.ResponseWriter, r *http.Request) {
	s, ok := h.session(w, r)
	if !ok {
		return
	}
	snap := s.Snapshot()
	writeJSON(w, http.StatusOK, map[string]any{"seq": snap.Seq, "nodes": snap.Nodes})
}

func (h *api) edges(w http.ResponseWriter, r *http.Request) {
	s, ok := h.session(w, r)
	if !ok {
		return
	}
	snap := s.Snapshot()
	writeJSON(w, http.StatusOK, map[string]any{"seq": snap.Seq, "edges": snap.Edges})
}
