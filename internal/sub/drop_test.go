package sub

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/serve"
	"repro/internal/store"
)

// Every session drop reaches the hub through the manager's terminal
// BatchView, whatever door it came in by: after the drop the session's
// subscriptions are gone, and a session re-created under the same ID
// pushes nothing to the old incarnation's subscribers.

func TestHTTPDropRetiresSubscriptions(t *testing.T) {
	checkDropRetires(t, func(t *testing.T, m *serve.Manager) {
		srv := httptest.NewServer(serve.NewHandler(m))
		defer srv.Close()
		req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/sessions/a", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			t.Fatalf("DELETE status %d", resp.StatusCode)
		}
	})
}

func TestReplicatedDropRetiresSubscriptions(t *testing.T) {
	checkDropRetires(t, func(t *testing.T, m *serve.Manager) {
		if err := m.ApplyRecord(store.Record{Kind: store.RecordDrop, Session: "a"}); err != nil {
			t.Fatal(err)
		}
	})
}

func checkDropRetires(t *testing.T, drop func(*testing.T, *serve.Manager)) {
	hub := NewHub(Config{})
	m := serve.NewManager(serve.Config{Shards: 1, AfterBatchDelta: hub.AfterBatchDelta})
	defer m.Close(nil)
	sb := hub.NewSubscriber()
	defer hub.CloseSubscriber(sb)

	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(0.5, 0), geom.Pt(1, 0)}
	s, err := m.CreateSession("a", pts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Subscribe("a", Predicate{Kind: KindMax}, sb); err != nil {
		t.Fatal(err)
	}
	// One batch integrates the subscription: its init event arrives.
	if _, err := s.Apply(serve.Add(0.25, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-sb.Events():
		if !ev.Init() {
			t.Fatalf("first event %+v is not the init snapshot", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no init event")
	}

	// The drop lands while the owner still drains queued batches, so the
	// terminal view races the last batch views into the hub.
	for i := 0; i < 32; i++ {
		if _, err := s.Apply(serve.Move(0, 0.01*float64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	drop(t, m)
	if got := hub.Stats().Subs; got != 0 {
		t.Fatalf("after drop: %d subs standing, want 0", got)
	}
	// Events the old incarnation emitted before the drop may still sit
	// in the queue: wait out its drain, then discard them.
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	for len(sb.Events()) > 0 {
		<-sb.Events()
	}

	// A new incarnation of "a" raises I(G'); the old subscription must
	// stay silent.
	s, err = m.CreateSession("a", pts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := s.Apply(serve.Add(0.5+0.01*float64(i), 0.01)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-sb.Events():
		t.Fatalf("dropped subscription received %+v from the new incarnation", ev)
	case <-time.After(100 * time.Millisecond):
	}
}
