package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
)

// syncBuffer lets the test read the daemon's stdout while the run
// goroutine writes it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (sb *syncBuffer) Write(p []byte) (int, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.Write(p)
}

func (sb *syncBuffer) String() string {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.String()
}

func TestRimdUsageErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errOut); code != 2 {
		t.Errorf("bad flag: code %d", code)
	}
	errOut.Reset()
	if code := run([]string{"positional"}, &out, &errOut); code != 2 {
		t.Errorf("positional args: code %d", code)
	}
	if !strings.Contains(errOut.String(), "unexpected arguments") {
		t.Errorf("stderr %q", errOut.String())
	}
}

func TestRimdListenFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var out, errOut bytes.Buffer
	if code := run([]string{"-addr", ln.Addr().String()}, &out, &errOut); code != 1 {
		t.Errorf("occupied port: code %d, stderr %q", code, errOut.String())
	}
}

// TestServeSmoke is the end-to-end smoke behind `make serve-smoke`: boot
// the daemon on a random port, run a scripted client session over HTTP,
// scrape /metrics, then SIGTERM and require a clean, fully-drained exit.
func TestServeSmoke(t *testing.T) {
	stdout := &syncBuffer{}
	var errOut bytes.Buffer
	codec := make(chan int, 1)
	go func() {
		codec <- run([]string{"-addr", "127.0.0.1:0"}, stdout, &errOut)
	}()

	// The daemon prints its actual address; wait for it.
	addrRe := regexp.MustCompile(`listening on (\S+)`)
	var addr string
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if m := addrRe.FindStringSubmatch(stdout.String()); m != nil {
			addr = m[1]
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if addr == "" {
		t.Fatalf("daemon never announced its address; stdout=%q stderr=%q", stdout.String(), errOut.String())
	}
	base := "http://" + addr

	post := func(path string, body string, wantCode int) []byte {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != wantCode {
			t.Fatalf("POST %s: status %d (want %d): %s", path, resp.StatusCode, wantCode, raw)
		}
		return raw
	}
	get := func(path string, wantCode int) []byte {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != wantCode {
			t.Fatalf("GET %s: status %d (want %d): %s", path, resp.StatusCode, wantCode, raw)
		}
		return raw
	}

	if !strings.Contains(string(get("/healthz", 200)), "ok") {
		t.Fatalf("healthz not ok")
	}
	post("/v1/sessions", `{"id":"smoke","n":64,"seed":3}`, 201)
	post("/v1/sessions/smoke/mutations",
		`{"ops":[{"op":"add","x":0.2,"y":0.2},{"op":"set_radius","node":0,"r":0.5},{"op":"anneal","iters":200,"seed":1}]}`, 202)
	post("/v1/sessions/smoke/flush", ``, 200)

	var summary struct {
		N   int    `json:"n"`
		Seq uint64 `json:"seq"`
		Max int    `json:"max_interference"`
	}
	if err := json.Unmarshal(get("/v1/sessions/smoke", 200), &summary); err != nil {
		t.Fatalf("summary: %v", err)
	}
	if summary.N != 65 || summary.Seq != 3 || summary.Max <= 0 {
		t.Fatalf("summary = %+v", summary)
	}

	metrics := string(get("/metrics", 200))
	for _, want := range []string{
		"rimd_sessions_created_total 1",
		"rimd_mutations_applied_total 3",
		"rimd_batches_total",
		"rimd_apply_latency_seconds_bucket",
		`rimd_queue_depth{session="smoke"}`,
		`rimd_session_nodes{session="smoke"} 65`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// The full exposition (rimd_* families plus the shared obs registry)
	// must be well-formed Prometheus text — a malformed renderer fails
	// the smoke test before it ever reaches a dashboard.
	if n, err := obs.CheckExposition(strings.NewReader(metrics)); err != nil {
		t.Errorf("/metrics exposition malformed: %v", err)
	} else if n == 0 {
		t.Error("/metrics exposition has no samples")
	}

	// Observability endpoints mounted by obs.MountDebug.
	if heap := get("/debug/pprof/heap?debug=1", 200); !bytes.Contains(heap, []byte("heap profile:")) {
		t.Errorf("/debug/pprof/heap?debug=1 not a heap profile: %.80s", heap)
	}
	get("/debug/obs/spans", 200)
	if tr := get("/debug/obs/trace", 200); !bytes.Contains(tr, []byte("traceEvents")) {
		t.Errorf("/debug/obs/trace not chrome-trace JSON: %.80s", tr)
	}

	// Graceful drain: SIGTERM (delivered to the whole test process; the
	// daemon's signal.Notify intercepts it) must exit 0 after draining.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-codec:
		if code != 0 {
			t.Fatalf("exit code %d; stderr=%q", code, errOut.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon did not exit after SIGTERM; stdout=%q", stdout.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "draining") || !strings.Contains(out, "bye") {
		t.Fatalf("drain messages missing: %q", out)
	}
	fmt.Printf("smoke ok: %s", out[strings.LastIndex(out, "rimd: drained"):])
}
