package repl_test

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/serve"
)

// unreachable is a follower whose leader never answers: promotion needs
// a stoppable feed, not a live one.
func unreachable(t *testing.T) (*repl.Follower, *serve.Manager) {
	t.Helper()
	m := serve.NewManager(serve.Config{Shards: 1, NoCoalesce: true})
	t.Cleanup(func() { m.Close(context.Background()) })
	fol, err := repl.NewFollower(repl.FollowerConfig{
		Manager: m, NodeID: "n2", LeaderAddr: "leader",
		Dial:    func(string) (net.Conn, error) { return nil, errors.New("no route") },
		Backoff: time.Millisecond, Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return fol, m
}

// TestPromoteBeforeRun: a promotion that lands before the feed loop has
// started lifts read-only, and the late Run returns at once instead of
// consuming the feed of a node that now leads.
func TestPromoteBeforeRun(t *testing.T) {
	fol, m := unreachable(t)
	if err := fol.Promote(context.Background()); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if m.ReadOnly() {
		t.Fatal("promotion did not lift read-only")
	}
	ran := make(chan error, 1)
	go func() { ran <- fol.Run() }()
	select {
	case err := <-ran:
		if err != nil {
			t.Fatalf("Run after Promote: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run still consuming the feed 10s after Promote")
	}
}

// TestPromoteRacesRunStart: Promote called while Run is just being
// started must wait for that Run (or keep it from starting), never race
// its registration — the race detector checks the WaitGroup handoff.
func TestPromoteRacesRunStart(t *testing.T) {
	for i := 0; i < 50; i++ {
		fol, _ := unreachable(t)
		ran := make(chan error, 1)
		go func() { ran <- fol.Run() }()
		// Stagger the promotion so it lands before, during and after
		// Run's start across iterations.
		time.Sleep(time.Duration(i%5) * 20 * time.Microsecond)
		if err := fol.Promote(context.Background()); err != nil {
			t.Fatalf("Promote: %v", err)
		}
		select {
		case err := <-ran:
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Run outlived Promote by 10s")
		}
	}
}
