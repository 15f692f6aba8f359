package main

// TestWireSmoke is the end-to-end check behind `make wire-smoke`: build
// the real rimd binary, boot it with both front doors open, drive mixed
// load over the rimwire binary protocol, and require the final state
// seen through the HTTP/JSON facade to agree exactly — two doors, one
// session table.

import (
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/wire"
)

var wireAddrRe = regexp.MustCompile(`wire listening on (\S+)`)

func TestWireSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("wire smoke builds and boots a real daemon; skipped in -short")
	}
	bin := buildRimd(t)
	p := bootRimd(t, bin, "-wire-addr", "127.0.0.1:0")

	var wireAddr string
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if m := wireAddrRe.FindStringSubmatch(p.out.String()); m != nil {
			wireAddr = m[1]
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if wireAddr == "" {
		t.Fatalf("rimd never announced its wire address; output:\n%s", p.out.String())
	}

	c, err := wire.Dial(wire.ClientConfig{Addr: wireAddr, Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Create over the wire, mutate with a pipelined mixed burst.
	if n, err := c.CreateGen("smoke", wire.GenSpec{N: 64, Seed: 11}); err != nil || n != 64 {
		t.Fatalf("CreateGen: n=%d err=%v", n, err)
	}
	var pend []*wire.Pending
	for i := 0; i < 32; i++ {
		ops := []serve.Mutation{serve.SetRadius(int64(i%8), 0.25+float64(i)/100)}
		if i%8 == 0 {
			ops = append(ops, serve.Add(float64(i)/10, 0.5))
		}
		pend = append(pend, c.GoMutate("smoke", ops))
	}
	adds := 0
	for _, pd := range pend {
		ids, err := pd.MutateIDs(nil)
		if err != nil {
			t.Fatalf("pipelined mutate: %v", err)
		}
		adds += len(ids)
	}
	if adds != 4 {
		t.Fatalf("assigned %d add ids, want 4", adds)
	}
	if _, err := c.Flush("smoke"); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	// Wire view of the final state.
	wsum, err := c.Summary("smoke")
	if err != nil {
		t.Fatal(err)
	}
	wseq, wnodes, err := c.Nodes("smoke", nil)
	if err != nil {
		t.Fatal(err)
	}

	// HTTP facade view of the same session.
	var hsum struct {
		N   int     `json:"n"`
		Seq uint64  `json:"seq"`
		Max int     `json:"max_interference"`
		Avg float64 `json:"avg_interference"`
	}
	if err := json.Unmarshal(p.get(t, "/v1/sessions/smoke", 200), &hsum); err != nil {
		t.Fatal(err)
	}
	var hnodes struct {
		Seq   uint64 `json:"seq"`
		Nodes []struct {
			ID int64   `json:"id"`
			X  float64 `json:"x"`
			Y  float64 `json:"y"`
			R  float64 `json:"r"`
			I  int     `json:"i"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal(p.get(t, "/v1/sessions/smoke/nodes", 200), &hnodes); err != nil {
		t.Fatal(err)
	}

	if int(wsum.N) != hsum.N || wsum.Seq != hsum.Seq || int(wsum.Max) != hsum.Max ||
		math.Abs(wsum.Avg-hsum.Avg) > 1e-12 {
		t.Fatalf("summary diverged across front doors:\nwire %+v\nhttp %+v", wsum, hsum)
	}
	if wseq != hnodes.Seq || len(wnodes) != len(hnodes.Nodes) {
		t.Fatalf("nodes shape diverged: wire seq=%d n=%d, http seq=%d n=%d",
			wseq, len(wnodes), hnodes.Seq, len(hnodes.Nodes))
	}
	byID := make(map[int64]wire.Node, len(wnodes))
	for _, n := range wnodes {
		byID[n.ID] = n
	}
	for _, hn := range hnodes.Nodes {
		wn, ok := byID[hn.ID]
		if !ok {
			t.Fatalf("node %d present over HTTP, missing over wire", hn.ID)
		}
		if wn.X != hn.X || wn.Y != hn.Y || wn.R != hn.R || int(wn.I) != hn.I {
			t.Fatalf("node %d diverged:\nwire %+v\nhttp %+v", hn.ID, wn, hn)
		}
	}

	// And the reverse direction: a session created over HTTP is live on
	// the wire door immediately.
	p.post(t, "/v1/sessions", `{"id":"viahttp","n":16,"seed":3}`, 201)
	if sum, err := c.Summary("viahttp"); err != nil || sum.N != 16 {
		t.Fatalf("HTTP-created session over wire: %+v %v", sum, err)
	}
	if err := c.Drop("viahttp"); err != nil {
		t.Fatalf("wire drop of HTTP-created session: %v", err)
	}
	p.get(t, "/v1/sessions/viahttp", 404)

	fmt.Printf("wire smoke ok: mixed load over rimwire, state identical across front doors\n")
}
